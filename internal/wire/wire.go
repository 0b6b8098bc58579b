// Package wire defines the Expelliarmus network wire protocol shared by
// the repository server (internal/server) and its client
// (internal/client): the streaming image envelope that carries a VMI
// upload, and the JSON result types the server returns for each
// operation. Each result record is defined once, here or in core; the
// public facade re-exports these types rather than mirroring them.
//
// The image envelope is designed so both sides can stream it:
//
//	magic "EXPWIR1\n"            (8 bytes)
//	header length, uint32 LE     (4 bytes)
//	header JSON                  (ImageHeader: name, base attrs,
//	                              primaries, disk byte count)
//	disk bytes                   (exactly ImageHeader.DiskBytes, the
//	                              image's qcow2-like serialized form)
//
// The sender produces the disk bytes with Disk.WriteTo — no whole-image
// buffer on the way out. The receiver must materialize the disk section
// once (publish mounts and mutates the image, so it needs random
// access). It buffers the section in fixed chunks allocated as the bytes
// arrive, never on the header's word alone, and hands the chunks to
// vdisk.DeserializeLazy so clusters are read from them rather than
// copied again; the base image then streams into the blob store via the
// repository's PutBaseReader without a second materialization.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"expelliarmus/internal/core"
	"expelliarmus/internal/pkgmeta"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/vdisk"
	"expelliarmus/internal/vmi"
	"expelliarmus/internal/vmirepo"
)

// Magic opens every image envelope.
const Magic = "EXPWIR1\n"

// maxHeaderBytes bounds the JSON header so a corrupt or hostile length
// prefix cannot ask the receiver to allocate gigabytes.
const maxHeaderBytes = 1 << 20

// ImageHeader is the metadata section of an image envelope.
type ImageHeader struct {
	Name      string
	Base      pkgmeta.BaseAttrs
	Primaries []string
	// DiskBytes is the exact length of the disk section that follows.
	DiskBytes int64
	// Tenant and ExpiresAt carry the publish's lifecycle options: the
	// quota account to charge and the Unix-seconds expiry timestamp
	// (zero = never). Omitted on the wire when unset, so envelopes from
	// older clients decode identically.
	Tenant    string `json:",omitempty"`
	ExpiresAt int64  `json:",omitempty"`
}

// PublishMeta is the lifecycle metadata riding alongside an image upload:
// the tenant to charge for the stored bytes and the optional expiry
// timestamp (Unix seconds; zero = never expires).
type PublishMeta struct {
	Tenant    string
	ExpiresAt int64
}

// WriteImage encodes img as one image envelope on w, streaming the disk
// section straight from the virtual disk.
func WriteImage(w io.Writer, img *vmi.Image) error {
	return WriteImageMeta(w, img, PublishMeta{})
}

// WriteImageMeta is WriteImage with lifecycle metadata in the header.
func WriteImageMeta(w io.Writer, img *vmi.Image, meta PublishMeta) error {
	hdr := ImageHeader{
		Name:      img.Name,
		Base:      img.Base,
		Primaries: img.Primaries,
		DiskBytes: img.Disk.SerializedBytes(),
		Tenant:    meta.Tenant,
		ExpiresAt: meta.ExpiresAt,
	}
	hb, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("wire: encode header: %w", err)
	}
	if len(hb) > maxHeaderBytes {
		return fmt.Errorf("wire: header %d bytes exceeds limit %d", len(hb), maxHeaderBytes)
	}
	var pre [12]byte
	copy(pre[:8], Magic)
	binary.LittleEndian.PutUint32(pre[8:], uint32(len(hb)))
	if _, err := w.Write(pre[:]); err != nil {
		return fmt.Errorf("wire: write envelope: %w", err)
	}
	if _, err := w.Write(hb); err != nil {
		return fmt.Errorf("wire: write header: %w", err)
	}
	n, err := img.Disk.WriteTo(w)
	if err != nil {
		return fmt.Errorf("wire: write disk: %w", err)
	}
	if n != hdr.DiskBytes {
		return fmt.Errorf("wire: disk wrote %d bytes, header promised %d", n, hdr.DiskBytes)
	}
	return nil
}

// ReadImage decodes one image envelope from r into a VMI. The disk
// section is read into owned chunks — the single materialization the
// receiving side needs for random access — and mounted lazily over them.
func ReadImage(r io.Reader) (*vmi.Image, error) {
	img, _, err := ReadImageMeta(r, -1)
	return img, err
}

// diskChunk is the unit the disk section is buffered in: each chunk is
// allocated only once the previous one is full, so a header declaring a
// huge section costs memory only as the sender backs the claim with data.
const diskChunk = 1 << 20

// chunkedDisk is a received disk section held as diskChunk-sized pieces
// (the last one shorter), read back at random offsets.
type chunkedDisk [][]byte

// readChunked reads exactly n bytes from r into a chunkedDisk.
func readChunked(r io.Reader, n int64) (chunkedDisk, error) {
	var c chunkedDisk
	for read := int64(0); read < n; {
		chunk := make([]byte, min(n-read, diskChunk))
		m, err := io.ReadFull(r, chunk)
		read += int64(m)
		if err != nil {
			return nil, fmt.Errorf("wire: read disk (%d of %d bytes): %w", read, n, err)
		}
		c = append(c, chunk)
	}
	return c, nil
}

func (c chunkedDisk) ReadAt(p []byte, off int64) (int, error) {
	n := 0
	for n < len(p) {
		i, at := (off+int64(n))/diskChunk, (off+int64(n))%diskChunk
		if off < 0 || i >= int64(len(c)) || at >= int64(len(c[i])) {
			return n, io.EOF
		}
		n += copy(p[n:], c[i][at:])
	}
	return n, nil
}

// ReadImageMeta is ReadImage plus the envelope's lifecycle metadata.
// size is the envelope's total length when the transport knows it (an
// HTTP Content-Length), or -1: an envelope whose header declares more
// bytes than size holds is refused before its disk section is read.
func ReadImageMeta(r io.Reader, size int64) (*vmi.Image, PublishMeta, error) {
	var pre [12]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, PublishMeta{}, fmt.Errorf("wire: read envelope: %w", err)
	}
	if string(pre[:8]) != Magic {
		return nil, PublishMeta{}, fmt.Errorf("wire: bad magic %q", pre[:8])
	}
	hlen := binary.LittleEndian.Uint32(pre[8:])
	if hlen == 0 || hlen > maxHeaderBytes {
		return nil, PublishMeta{}, fmt.Errorf("wire: header length %d out of range", hlen)
	}
	hb := make([]byte, hlen)
	if _, err := io.ReadFull(r, hb); err != nil {
		return nil, PublishMeta{}, fmt.Errorf("wire: read header: %w", err)
	}
	var hdr ImageHeader
	if err := json.Unmarshal(hb, &hdr); err != nil {
		return nil, PublishMeta{}, fmt.Errorf("wire: decode header: %w", err)
	}
	if hdr.Name == "" {
		return nil, PublishMeta{}, fmt.Errorf("wire: envelope names no image")
	}
	if hdr.DiskBytes < 0 {
		return nil, PublishMeta{}, fmt.Errorf("wire: negative disk length %d", hdr.DiskBytes)
	}
	if hdr.ExpiresAt < 0 {
		return nil, PublishMeta{}, fmt.Errorf("wire: negative expiry timestamp %d", hdr.ExpiresAt)
	}
	if size >= 0 && hdr.DiskBytes > size-int64(len(pre))-int64(hlen) {
		return nil, PublishMeta{}, fmt.Errorf("wire: disk section of %d bytes exceeds the %d-byte envelope",
			hdr.DiskBytes, size)
	}
	buf, err := readChunked(r, hdr.DiskBytes)
	if err != nil {
		return nil, PublishMeta{}, err
	}
	disk, err := vdisk.DeserializeLazy(hdr.Name, buf, hdr.DiskBytes)
	if err != nil {
		return nil, PublishMeta{}, fmt.Errorf("wire: open disk: %w", err)
	}
	img := &vmi.Image{
		Name:      hdr.Name,
		Base:      hdr.Base,
		Primaries: hdr.Primaries,
		Disk:      disk,
	}
	return img, PublishMeta{Tenant: hdr.Tenant, ExpiresAt: hdr.ExpiresAt}, nil
}

// PublishResult reports a publish operation: the server's reply to a
// publish, and the facade's result type.
type PublishResult struct {
	// Similarity is SimG against the best-matching master graph.
	Similarity float64
	// Exported lists the packages stored by this publish.
	Exported []string
	// Skipped counts packages already in the repository.
	Skipped int
	// BaseStored reports whether a new base image was stored.
	BaseStored bool
	// Seconds is the modeled publish time; Phases decomposes it.
	Seconds float64
	Phases  map[string]float64
}

// NewPublishResult flattens a core publish report.
func NewPublishResult(rep *core.PublishReport) *PublishResult {
	return &PublishResult{
		Similarity: rep.Similarity,
		Exported:   append([]string(nil), rep.Exported...),
		Skipped:    rep.Skipped,
		BaseStored: rep.BaseStored,
		Seconds:    rep.Seconds(),
		Phases:     phaseMap(rep.Meter),
	}
}

// RetrieveResult reports a retrieval or assembly: the server's reply (for
// streamed responses it rides in the X-Expel-Result trailer, after the
// image bytes), and the facade's result type.
type RetrieveResult struct {
	// Imported lists the packages installed during assembly.
	Imported []string
	// Seconds is the modeled retrieval time; Phases decomposes it into the
	// paper's Fig. 5a components (copy, launch, reset, import, ...).
	Seconds float64
	Phases  map[string]float64
}

// NewRetrieveResult flattens a core retrieve report.
func NewRetrieveResult(rep *core.RetrieveReport) *RetrieveResult {
	return &RetrieveResult{
		Imported: append([]string(nil), rep.Imported...),
		Seconds:  rep.Seconds(),
		Phases:   phaseMap(rep.Meter),
	}
}

func phaseMap(m *simio.Meter) map[string]float64 {
	out := map[string]float64{}
	for ph, d := range m.Snapshot() {
		out[string(ph)] = d.Seconds()
	}
	return out
}

// Stats is the server's repository and cache statistics reply.
type Stats struct {
	Packages int
	Bases    int
	VMIs     int
	// TotalBytes is the live (deduplicated) repository size. On a
	// disk-backed server DiskBytes is the physical blob footprint —
	// including the garbage released images leave until compaction — and
	// DeadBytes the reclaimable part of it; both are zero for a
	// memory-backed server.
	TotalBytes int64
	DiskBytes  int64
	DeadBytes  int64

	CacheEnabled bool
	CacheHits    int64
	CacheMisses  int64
	CacheEntries int
	CacheBytes   int64

	// Tenants maps each tenant to its recorded live bytes (the quota
	// accounting publishes maintain). Nil when no tenant has ever been
	// charged.
	Tenants map[string]int64 `json:",omitempty"`

	// Repl carries replication state when the server participates in
	// snapshot + WAL shipping: as the writer (source of truth) or as a
	// follower serving the replicated read path. Nil on servers that do
	// neither (memory-backed daemons have no WAL to ship).
	Repl *ReplicationStats
}

// ReplCommit is the writer's current durable metadata position — the
// reply to GET /v1/repl/commit and the watermark a follower tails to.
// Epoch identifies the snapshot + WAL pair (it advances when the writer
// compacts); DurableBytes is the fsynced, commit-marker-covered WAL
// length within that epoch.
type ReplCommit struct {
	Epoch        uint64
	DurableBytes int64
}

// ReplicationStats is the replication section of a stats reply.
type ReplicationStats struct {
	// Role is "writer" or "follower".
	Role string
	// Epoch is the current snapshot/WAL epoch: the writer's own, or the
	// epoch the follower has applied up to.
	Epoch uint64
	// DurableBytes is the writer's durable WAL length. On a follower it
	// is the writer's position as of the last poll — the catch-up target.
	DurableBytes int64
	// AppliedBytes is how far into the epoch's WAL a follower has
	// applied (zero on writers).
	AppliedBytes int64
	// LagBytes is DurableBytes - AppliedBytes as of the follower's last
	// poll of the writer; zero on writers and on caught-up followers.
	LagBytes int64
	// Batches and Ops count what the follower has applied since it
	// started (zero on writers).
	Batches int64
	Ops     int64
	// WriterURL is the upstream a follower tails (empty on writers).
	WriterURL string
}

// SyncStats reports one durable save of a disk-backed repository: the
// server's reply to a sync or compact, and the facade's Sync result.
type SyncStats struct {
	// Segments and SegmentBytes describe the incremental blob flush: only
	// bytes appended since the previous Sync are written, so a Sync after
	// publishing one image costs that image, not the whole store. Segments
	// counts segment flushes — a file flushed in both phases of the
	// repository sync (new blobs, then release records) counts twice,
	// while SegmentBytes never double-counts a byte.
	Segments     int
	SegmentBytes int64
	// IndexBytes is the blob index image committed atomically alongside.
	// MetaBytes is the metadata bytes this sync committed: the WAL delta
	// (framed mutation records plus one commit marker) on the hot path,
	// or the fresh full snapshot on a compacting sync — never a full
	// metadata rewrite for an incremental delta.
	IndexBytes int64
	MetaBytes  int64
	// MetaOps counts the metadata mutations committed; Compacted reports
	// that the metadata WAL was rewritten into a fresh snapshot of
	// MetaSnapshotBytes (zero otherwise).
	MetaOps           int
	Compacted         bool
	MetaSnapshotBytes int64
	// SegmentsCompacted and BytesReclaimed report blob segment compaction
	// this sync performed (automatically past the dead-ratio threshold, or
	// because Compact forced it): segments evacuated and the file bytes
	// their retirement freed. DeadBytes is the garbage still on disk after
	// — record bytes of released blobs whose segments have not yet crossed
	// the threshold.
	SegmentsCompacted int
	BytesReclaimed    int64
	DeadBytes         int64
}

// NewSyncStats flattens a repository sync report.
func NewSyncStats(st vmirepo.SyncStats) SyncStats {
	return SyncStats{
		Segments:          st.Blobs.Segments,
		SegmentBytes:      st.Blobs.SegmentBytes,
		IndexBytes:        st.Blobs.IndexBytes,
		MetaBytes:         st.MetaBytes,
		MetaOps:           st.MetaOps,
		Compacted:         st.Compacted,
		MetaSnapshotBytes: st.MetaSnapshotBytes,
		SegmentsCompacted: st.Blobs.SegmentsCompacted,
		BytesReclaimed:    st.Blobs.BytesReclaimed,
		DeadBytes:         st.Blobs.DeadBytes,
	}
}

// VacuumStats is the server's reply to a vacuum: what the pass reclaimed.
type VacuumStats = core.VacuumStats

// AssembleRequest asks the server to build a VMI from stored packages
// (Algorithm 3 without a prior upload of this exact image).
type AssembleRequest struct {
	Name         string
	Primaries    []string
	UserDataFrom string
}
