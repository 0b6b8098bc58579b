package wire

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReadImageMeta feeds arbitrary bytes to the publish-envelope decoder
// the daemon runs on every upload, with the envelope length both known
// (an HTTP Content-Length) and unknown (chunked). It must never panic or
// allocate beyond what the input backs, and a decoded image's disk must
// serialize. Seeds live in testdata/fuzz/FuzzReadImageMeta: a valid
// envelope, one carrying lifecycle metadata, a truncated one, a bad
// magic, and the 1 TiB-claiming probe.
func FuzzReadImageMeta(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, size := range []int64{int64(len(data)), -1} {
			img, _, err := ReadImageMeta(bytes.NewReader(data), size)
			if err != nil {
				continue
			}
			n, err := img.Disk.WriteTo(io.Discard)
			if err != nil {
				t.Fatalf("decoded disk does not serialize: %v", err)
			}
			if n != img.Disk.SerializedBytes() {
				t.Fatalf("disk wrote %d bytes, SerializedBytes says %d", n, img.Disk.SerializedBytes())
			}
		}
	})
}
