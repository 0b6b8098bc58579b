package expelliarmus

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_digests.txt from the current code")

const goldenPath = "testdata/golden_digests.txt"

func sum(b []byte) string {
	d := sha256.Sum256(b)
	return hex.EncodeToString(d[:])
}

// TestGoldenImageBytes pins the bytes the system produces: each Table II
// and IDE-series image's wire envelope as built, each image's RetrieveTo
// stream after one sequential PublishAll, and the Save() snapshot of
// that repository. Guest-filesystem placement decides every one of these
// bytes, so an allocator or serializer change that moves a single block
// fails here. Regenerate (only for an intended format change) with
//
//	go test -run TestGoldenImageBytes -update-golden .
func TestGoldenImageBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and publishes the full catalog")
	}
	sys := NewWithOptions(Options{Parallelism: 1})
	var imgs []*Image
	for _, name := range Templates() {
		img, err := sys.BuildImage(name)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		imgs = append(imgs, img)
	}
	ide, err := sys.BuildIDESeries(4)
	if err != nil {
		t.Fatal(err)
	}
	imgs = append(imgs, ide...)

	got := map[string]string{}
	for _, img := range imgs {
		h := sha256.New()
		if err := img.EncodeWire(h); err != nil {
			t.Fatalf("encode %s: %v", img.Name(), err)
		}
		got["built/"+img.Name()] = hex.EncodeToString(h.Sum(nil))
	}
	if _, err := sys.PublishAll(imgs); err != nil {
		t.Fatal(err)
	}
	for _, img := range imgs {
		h := sha256.New()
		if _, _, err := sys.RetrieveTo(h, img.Name()); err != nil {
			t.Fatalf("retrieve %s: %v", img.Name(), err)
		}
		got["retrieved/"+img.Name()] = hex.EncodeToString(h.Sum(nil))
	}
	got["save"] = sum(mustSave(t, sys))

	if *updateGolden {
		writeGolden(t, got)
		return
	}
	want := readGolden(t)
	if len(want) != len(got) {
		t.Errorf("golden file has %d digests, run produced %d", len(want), len(got))
	}
	for _, key := range sortedKeys(got) {
		if want[key] != got[key] {
			t.Errorf("%s: sha256 %s, golden %s", key, got[key], want[key])
		}
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, line)
		}
		out[key] = strings.TrimSpace(digest)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func writeGolden(t *testing.T, digests map[string]string) {
	t.Helper()
	var b strings.Builder
	b.WriteString("# SHA-256 digests pinned by TestGoldenImageBytes (golden_test.go).\n")
	for _, key := range sortedKeys(digests) {
		fmt.Fprintf(&b, "%s %s\n", key, digests[key])
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
