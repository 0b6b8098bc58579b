// Package server exposes one Expelliarmus system over HTTP — the network
// repository of the service era: publish, retrieve, assemble, remove,
// stats, sync, snapshot and graph export, with request and response
// bodies streamed end to end.
//
// Streaming contract. Retrieval and assembly responses carry the image
// bytes as a chunked body written straight from the assembly pipeline
// (core.RetrieveTo into the ResponseWriter — the server never holds a
// whole image), followed by HTTP trailers:
//
//	X-Expel-Sha256  hex digest of the body
//	X-Expel-Bytes   body length in bytes
//	X-Expel-Result  the operation's wire.RetrieveResult as JSON
//
// An error before the first body byte yields a clean status code; an
// error after bytes have flowed aborts the connection mid-chunk, so a
// client can never mistake a truncated image for a complete one (the
// chunked framing never terminates and the trailers never arrive).
//
// Error mapping. Absence and corruption are deliberately kept apart, on
// the wire as in the blob store: a missing VMI is 404 with
// X-Expel-Error-Kind "not-found", while a blob the store cannot serve
// faithfully is 500 with kind "corrupt" — the client resurfaces these as
// vmirepo.ErrNotFound and blobstore.ErrCorrupt respectively, so remote
// callers route the two cases exactly like in-process ones.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/core"
	"expelliarmus/internal/metawal"
	"expelliarmus/internal/vmirepo"
	"expelliarmus/internal/wire"
)

// Header and trailer names of the streaming protocol.
const (
	HeaderSha256    = "X-Expel-Sha256"
	HeaderBytes     = "X-Expel-Bytes"
	HeaderResult    = "X-Expel-Result"
	HeaderErrorKind = "X-Expel-Error-Kind"
	// HeaderEpoch carries the snapshot/WAL epoch of a replication stream.
	HeaderEpoch = "X-Expel-Epoch"
	// HeaderSize declares a replication stream's exact byte length up
	// front (HeaderBytes arrives only in the trailers, after the body), so
	// a follower can size its buffer once and consume the stream without
	// growing an intermediate copy.
	HeaderSize = "X-Expel-Size"
)

// Error kinds carried in HeaderErrorKind.
const (
	KindNotFound = "not-found"
	KindCorrupt  = "corrupt"
	// KindReadOnly marks a mutating request refused by a follower daemon.
	KindReadOnly = "read-only"
	// KindEpochGone marks a WAL tail request for an epoch the writer's
	// compaction has retired — the follower must restart from the current
	// snapshot.
	KindEpochGone = "epoch-gone"
	// KindQuotaExceeded marks a publish rejected because it would push its
	// tenant past the configured quota.
	KindQuotaExceeded = "quota-exceeded"
)

// Server is an http.Handler serving one shared Expelliarmus system.
// Concurrency is delegated to the system itself, which is safe for any
// mix of publishes, retrievals and removals.
type Server struct {
	sys  *core.System
	mux  *http.ServeMux
	repl ReplStatser
}

// ReplStatser reports replication state for the stats endpoint — the
// replica catch-up loop implements it on follower daemons (the server
// cannot import internal/replica directly: client → server → core).
type ReplStatser interface {
	ReplicationStats() wire.ReplicationStats
}

// SetReplica attaches a follower's replication loop so /v1/stats reports
// applied epoch/offset and lag. Call before serving requests.
func (s *Server) SetReplica(rs ReplStatser) { s.repl = rs }

// New returns a server over sys.
func New(sys *core.System) *Server {
	s := &Server{sys: sys, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /v1/images/{name}", s.handleRetrieve)
	s.mux.HandleFunc("POST /v1/images", s.handlePublish)
	s.mux.HandleFunc("DELETE /v1/images/{name}", s.handleRemove)
	s.mux.HandleFunc("POST /v1/assemble", s.handleAssemble)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/sync", s.handleSync)
	s.mux.HandleFunc("POST /v1/compact", s.handleCompact)
	s.mux.HandleFunc("POST /v1/vacuum", s.handleVacuum)
	s.mux.HandleFunc("GET /v1/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /v1/graphs/dot", s.handleDOT)
	s.mux.HandleFunc("GET /v1/repl/commit", s.handleReplCommit)
	s.mux.HandleFunc("GET /v1/repl/snapshot", s.handleReplSnapshot)
	s.mux.HandleFunc("GET /v1/repl/wal", s.handleReplWAL)
	s.mux.HandleFunc("GET /v1/repl/blob/{id}", s.handleReplBlob)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeError maps an operation error onto a status and error-kind
// header. It must only be called before any body bytes were written.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, vmirepo.ErrNotFound), errors.Is(err, blobstore.ErrNotFound):
		w.Header().Set(HeaderErrorKind, KindNotFound)
		status = http.StatusNotFound
	case errors.Is(err, blobstore.ErrCorrupt):
		w.Header().Set(HeaderErrorKind, KindCorrupt)
	case errors.Is(err, vmirepo.ErrReadOnly):
		w.Header().Set(HeaderErrorKind, KindReadOnly)
		status = http.StatusForbidden
	case errors.Is(err, metawal.ErrEpochGone):
		w.Header().Set(HeaderErrorKind, KindEpochGone)
		status = http.StatusGone
	case errors.Is(err, vmirepo.ErrQuotaExceeded):
		w.Header().Set(HeaderErrorKind, KindQuotaExceeded)
		status = http.StatusRequestEntityTooLarge
	}
	http.Error(w, err.Error(), status)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// hashCountWriter tees the streamed body into a digest and a byte count
// for the response trailers.
type hashCountWriter struct {
	w io.Writer
	h io.Writer
	n int64
}

func (hw *hashCountWriter) Write(p []byte) (int, error) {
	n, err := hw.w.Write(p)
	hw.h.Write(p[:n])
	hw.n += int64(n)
	return n, err
}

// streamImage runs produce with the response writer as sink and settles
// the streaming contract: trailers on success, a clean status when the
// operation failed before its first byte, a connection abort when it
// failed with bytes already on the wire.
func streamImage(w http.ResponseWriter, produce func(io.Writer) (*wire.RetrieveResult, error)) {
	w.Header().Set("Trailer", HeaderSha256+", "+HeaderBytes+", "+HeaderResult)
	w.Header().Set("Content-Type", "application/octet-stream")
	h := sha256.New()
	hw := &hashCountWriter{w: w, h: h}
	res, err := produce(hw)
	if err != nil {
		if hw.n == 0 {
			// Nothing sent yet: undo the trailer declaration and fail clean.
			w.Header().Del("Trailer")
			writeError(w, err)
			return
		}
		// Bytes are already on the wire; the only honest signal left is a
		// dead connection, which the chunked framing turns into an
		// unmistakable truncation on the client side.
		panic(http.ErrAbortHandler)
	}
	rb, merr := json.Marshal(res)
	if merr != nil {
		panic(http.ErrAbortHandler)
	}
	w.Header().Set(HeaderSha256, hex.EncodeToString(h.Sum(nil)))
	w.Header().Set(HeaderBytes, strconv.FormatInt(hw.n, 10))
	w.Header().Set(HeaderResult, string(rb))
}

func (s *Server) handleRetrieve(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	streamImage(w, func(sink io.Writer) (*wire.RetrieveResult, error) {
		_, rep, err := s.sys.RetrieveTo(sink, name)
		if err != nil {
			return nil, err
		}
		return wire.NewRetrieveResult(rep), nil
	})
}

func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	img, meta, err := wire.ReadImageMeta(r.Body, r.ContentLength)
	if err != nil {
		http.Error(w, fmt.Sprintf("decode image: %v", err), http.StatusBadRequest)
		return
	}
	rep, err := s.sys.PublishWith(img, core.PublishOpts{
		Tenant:    meta.Tenant,
		ExpiresAt: meta.ExpiresAt,
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, wire.NewPublishResult(rep))
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	if err := s.sys.Remove(r.PathValue("name")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleAssemble(w http.ResponseWriter, r *http.Request) {
	var req wire.AssembleRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("decode request: %v", err), http.StatusBadRequest)
		return
	}
	streamImage(w, func(sink io.Writer) (*wire.RetrieveResult, error) {
		img, rep, err := s.sys.Assemble(req.Name, req.Primaries, req.UserDataFrom)
		if err != nil {
			return nil, err
		}
		if _, err := img.Disk.WriteTo(sink); err != nil {
			return nil, err
		}
		return wire.NewRetrieveResult(rep), nil
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.sys.Repo().Stats()
	out := wire.Stats{
		Packages:   st.Packages,
		Bases:      st.Bases,
		VMIs:       st.VMIs,
		TotalBytes: st.TotalBytes,
		DiskBytes:  st.BlobDiskBytes,
		DeadBytes:  st.BlobDeadBytes,
	}
	if cs, ok := s.sys.CacheStats(); ok {
		out.CacheEnabled = true
		out.CacheHits = cs.Hits
		out.CacheMisses = cs.Misses
		out.CacheEntries = cs.Entries
		out.CacheBytes = cs.Bytes
	}
	if ts := s.sys.TenantStats(); len(ts) > 0 {
		out.Tenants = ts
	}
	switch {
	case s.repl != nil:
		rs := s.repl.ReplicationStats()
		out.Repl = &rs
	default:
		if wal := s.sys.Repo().WAL(); wal != nil {
			epoch, durable := wal.CommitState()
			out.Repl = &wire.ReplicationStats{Role: "writer", Epoch: epoch, DurableBytes: durable}
		}
	}
	writeJSON(w, out)
}

func (s *Server) handleSync(w http.ResponseWriter, r *http.Request) {
	st, err := s.sys.Sync()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, wire.NewSyncStats(st))
}

// handleCompact forces compaction of both stores (metadata WAL snapshot
// rewrite, blob segment reclamation) and replies with the same durable-
// save breakdown a sync does.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	st, err := s.sys.Compact()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, wire.NewSyncStats(st))
}

// handleVacuum reclaims dangling repository state (unreferenced
// packages, orphaned archives and lifecycle records, blob orphans) and
// compacts the stores, replying with what the pass removed.
func (s *Server) handleVacuum(w http.ResponseWriter, r *http.Request) {
	st, err := s.sys.Vacuum()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, st)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	snap, err := s.sys.Snapshot()
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(snap)))
	w.Write(snap)
}

func (s *Server) handleDOT(w http.ResponseWriter, r *http.Request) {
	dot, err := s.sys.MasterDOT()
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, dot)
}
