package wire

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/core"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/vdisk"
	"expelliarmus/internal/vmi"
	"expelliarmus/internal/vmirepo"
)

// TestNewSyncStatsCopiesEveryField fills every counter of a repository
// sync report with a distinct non-zero value and checks each one lands in
// its flattened field — the dropped-field bug a hand-written copy invites.
// The reflection pass also catches a field added to SyncStats that the
// flattener never fills.
func TestNewSyncStatsCopiesEveryField(t *testing.T) {
	in := vmirepo.SyncStats{
		Blobs: blobstore.SyncStats{
			Segments:          1,
			SegmentBytes:      2,
			IndexBytes:        3,
			SegmentsCompacted: 4,
			BytesReclaimed:    5,
			DeadBytes:         6,
		},
		MetaBytes:         7,
		MetaOps:           8,
		Compacted:         true,
		MetaSnapshotBytes: 9,
	}
	want := SyncStats{
		Segments:          1,
		SegmentBytes:      2,
		IndexBytes:        3,
		SegmentsCompacted: 4,
		BytesReclaimed:    5,
		DeadBytes:         6,
		MetaBytes:         7,
		MetaOps:           8,
		Compacted:         true,
		MetaSnapshotBytes: 9,
	}
	got := NewSyncStats(in)
	if got != want {
		t.Fatalf("NewSyncStats = %+v, want %+v", got, want)
	}
	v := reflect.ValueOf(got)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("NewSyncStats leaves %s zero", v.Type().Field(i).Name)
		}
	}
}

// TestNewResultsCopyReports checks the publish and retrieve flatteners
// carry every report field, deep-copy the package lists, and turn the
// meter into per-phase seconds.
func TestNewResultsCopyReports(t *testing.T) {
	m := &simio.Meter{}
	m.Charge(simio.PhaseCopy, 2*time.Second)
	m.Charge(simio.PhaseImport, 500*time.Millisecond)
	phases := map[string]float64{"copy": 2, "import": 0.5}

	pub := &core.PublishReport{Similarity: 0.75, Exported: []string{"a", "b"}, Skipped: 3, BaseStored: true, Meter: m}
	gotPub := NewPublishResult(pub)
	wantPub := &PublishResult{Similarity: 0.75, Exported: []string{"a", "b"}, Skipped: 3, BaseStored: true, Seconds: 2.5, Phases: phases}
	if !reflect.DeepEqual(gotPub, wantPub) {
		t.Fatalf("NewPublishResult = %+v, want %+v", gotPub, wantPub)
	}
	pub.Exported[0] = "mutated"
	if gotPub.Exported[0] != "a" {
		t.Fatalf("PublishResult.Exported aliases the report's slice")
	}

	ret := &core.RetrieveReport{Imported: []string{"c"}, Meter: m}
	gotRet := NewRetrieveResult(ret)
	wantRet := &RetrieveResult{Imported: []string{"c"}, Seconds: 2.5, Phases: phases}
	if !reflect.DeepEqual(gotRet, wantRet) {
		t.Fatalf("NewRetrieveResult = %+v, want %+v", gotRet, wantRet)
	}
	ret.Imported[0] = "mutated"
	if gotRet.Imported[0] != "c" {
		t.Fatalf("RetrieveResult.Imported aliases the report's slice")
	}
}

// TestResultsJSONRoundTrip pins the reply bodies of /v1/sync,
// /v1/compact, /v1/vacuum and publish, and the X-Expel-Result trailer:
// each record survives a JSON round trip unchanged, under exactly the
// field names the protocol has always used.
func TestResultsJSONRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		in   any
		keys []string
	}{
		{"SyncStats", &SyncStats{
			Segments: 1, SegmentBytes: 2, IndexBytes: 3, MetaBytes: 4, MetaOps: 5,
			Compacted: true, MetaSnapshotBytes: 6, SegmentsCompacted: 7, BytesReclaimed: 8, DeadBytes: 9,
		}, []string{"BytesReclaimed", "Compacted", "DeadBytes", "IndexBytes", "MetaBytes", "MetaOps",
			"MetaSnapshotBytes", "SegmentBytes", "Segments", "SegmentsCompacted"}},
		{"VacuumStats", &VacuumStats{
			PackagesRemoved: 1, UserDataRemoved: 2, MetaRemoved: 3, BlobsReleased: 4, BytesReclaimed: 5,
		}, []string{"BlobsReleased", "BytesReclaimed", "MetaRemoved", "PackagesRemoved", "UserDataRemoved"}},
		{"PublishResult", &PublishResult{
			Similarity: 0.5, Exported: []string{"x", "y"}, Skipped: 2, BaseStored: true,
			Seconds: 1.25, Phases: map[string]float64{"export": 1, "store": 0.25},
		}, []string{"BaseStored", "Exported", "Phases", "Seconds", "Similarity", "Skipped"}},
		{"RetrieveResult", &RetrieveResult{
			Imported: []string{"z"}, Seconds: 3.5, Phases: map[string]float64{"copy": 3, "import": 0.5},
		}, []string{"Imported", "Phases", "Seconds"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := json.Marshal(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(b, &fields); err != nil {
				t.Fatal(err)
			}
			keys := make([]string, 0, len(fields))
			for k := range fields {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if !reflect.DeepEqual(keys, tc.keys) {
				t.Fatalf("JSON fields = %v, want %v", keys, tc.keys)
			}
			out := reflect.New(reflect.TypeOf(tc.in).Elem()).Interface()
			if err := json.Unmarshal(b, out); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(out, tc.in) {
				t.Fatalf("round trip = %+v, want %+v", out, tc.in)
			}
		})
	}
}

// TestImageRoundTripAcrossChunks: a disk section several receive chunks
// long decodes to the same serialized bytes the sender streamed, and the
// chunked buffer serves a read that straddles a chunk boundary.
func TestImageRoundTripAcrossChunks(t *testing.T) {
	d := vdisk.New("big", 8<<20, 512)
	rng := rand.New(rand.NewSource(1))
	for off := int64(0); off < 8<<20; off += 3000 {
		b := make([]byte, 700)
		rng.Read(b)
		d.WriteAt(b, off)
	}
	img := &vmi.Image{Name: "big", Disk: d}
	var env bytes.Buffer
	if err := WriteImage(&env, img); err != nil {
		t.Fatal(err)
	}
	if img.Disk.SerializedBytes() < 3*diskChunk {
		t.Fatalf("disk section is %d bytes; want several chunks", img.Disk.SerializedBytes())
	}
	got, _, err := ReadImageMeta(bytes.NewReader(env.Bytes()), int64(env.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Disk.Serialize(), d.Serialize()) {
		t.Fatal("decoded disk differs from the one sent")
	}
	section := env.Bytes()[env.Len()-int(d.SerializedBytes()):]
	c, err := readChunked(bytes.NewReader(section), int64(len(section)))
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 100)
	if _, err := c.ReadAt(p, diskChunk-50); err != nil || !bytes.Equal(p, section[diskChunk-50:diskChunk+50]) {
		t.Fatalf("straddling read: %v", err)
	}
}
