package metawal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"expelliarmus/internal/metadb"
)

// openLog opens a log, failing the test on error.
func openLog(t *testing.T, dir string, opts Options) (*Log, *metadb.DB) {
	t.Helper()
	l, db, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, db
}

// wire connects db mutations to the log, as vmirepo does.
func wire(db *metadb.DB, l *Log) { db.SetJournal(l.Record) }

// putN writes n keys into bucket b of db.
func putN(db *metadb.DB, bucket string, start, n int) {
	b := db.CreateBucket(bucket)
	for i := start; i < start+n; i++ {
		b.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("value-%04d", i)))
	}
}

// mustSync syncs, failing the test on error.
func mustSync(t *testing.T, l *Log) SyncStats {
	t.Helper()
	st, err := l.Sync()
	if err != nil {
		t.Fatalf("Sync: %v", err)
	}
	return st
}

// reopenSnap closes nothing and reopens the directory, returning the
// replayed database's snapshot for equivalence checks.
func reopenSnap(t *testing.T, dir string) ([]byte, RecoveryReport) {
	t.Helper()
	l, db := openLog(t, dir, Options{})
	defer l.Abandon()
	return db.Snapshot(), l.Recovery()
}

// TestRoundTrip pins the basic contract: mutations synced through the
// WAL reopen to a byte-identical snapshot, with batches replayed.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	wire(db, l)
	putN(db, "pkgs", 0, 10)
	st := mustSync(t, l)
	if st.Ops != 11 { // 10 puts + 1 bucket creation
		t.Fatalf("first sync committed %d ops, want 11", st.Ops)
	}
	putN(db, "pkgs", 10, 5)
	db.CreateBucket("pkgs").Delete([]byte("key-0003"))
	mustSync(t, l)
	want := db.Snapshot()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	got, rec := reopenSnap(t, dir)
	if !bytes.Equal(got, want) {
		t.Fatalf("reopened snapshot differs: %d vs %d bytes", len(got), len(want))
	}
	if rec.ReplayedBatches != 2 || rec.ReplayedOps != 17 || rec.Torn {
		t.Fatalf("recovery = %+v, want 2 clean batches of 17 ops", rec)
	}
}

// TestNoOpSyncSkipsCommit pins that a Sync with nothing to commit writes
// nothing (no WAL growth, no watermark churn).
func TestNoOpSyncSkipsCommit(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	wire(db, l)
	putN(db, "b", 0, 3)
	mustSync(t, l)
	lenBefore := l.Bytes()
	st := mustSync(t, l)
	if st.Ops != 0 || st.WALBytes != 0 || st.Compacted {
		t.Fatalf("no-op sync committed something: %+v", st)
	}
	if l.Bytes() != lenBefore {
		t.Fatalf("no-op sync grew the WAL")
	}
	l.Close()
}

// TestUnsyncedOpsLostOnCrash pins the buffering contract: ops recorded
// but never synced die with the process — the safe direction, because
// their blobs may not be durable either.
func TestUnsyncedOpsLostOnCrash(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	wire(db, l)
	putN(db, "b", 0, 4)
	mustSync(t, l)
	want := db.Snapshot()
	putN(db, "b", 4, 4) // never synced
	if l.Pending() == 0 {
		t.Fatal("ops not buffered")
	}
	l.Abandon() // crash

	got, rec := reopenSnap(t, dir)
	if !bytes.Equal(got, want) {
		t.Fatalf("crash did not land on the last synced state")
	}
	if rec.Torn {
		t.Fatalf("clean crash reported a tear: %+v", rec)
	}
}

// TestKillAfterAppendReplaysBatch crashes between the batch fsync and
// the watermark commit: the batch is whole and marked on disk, so replay
// applies it — the log retained the operations.
func TestKillAfterAppendReplaysBatch(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	wire(db, l)
	putN(db, "b", 0, 3)
	mustSync(t, l)
	putN(db, "b", 3, 3)
	want := db.Snapshot()
	l.Kill = func(p KillPoint) error {
		if p == KillAfterAppend {
			return fmt.Errorf("injected crash")
		}
		return nil
	}
	if _, err := l.Sync(); err == nil {
		t.Fatal("killed sync reported success")
	}
	l.Abandon()

	got, rec := reopenSnap(t, dir)
	if !bytes.Equal(got, want) {
		t.Fatalf("fsynced batch beyond the watermark not replayed")
	}
	if rec.Torn {
		t.Fatalf("whole marked batch reported torn: %+v", rec)
	}
	// The watermark lags the replayed batch; the next sync must be able
	// to advance it.
	l2, db2 := openLog(t, dir, Options{})
	wire(db2, l2)
	if l2.DurableBytes() >= l2.Bytes() {
		t.Fatalf("watermark not behind the replayed tail: durable %d, len %d", l2.DurableBytes(), l2.Bytes())
	}
	if _, err := l2.Sync(); err != nil {
		t.Fatalf("watermark-advancing sync: %v", err)
	}
	if l2.DurableBytes() != l2.Bytes() {
		t.Fatalf("sync did not advance the watermark")
	}
	l2.Close()
}

// TestTornBatchTruncatedWhole tears the last batch mid-record: recovery
// must discard the WHOLE batch (its commit marker never landed), landing
// exactly on the previous synced state — never inside a Sync.
func TestTornBatchTruncatedWhole(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	wire(db, l)
	putN(db, "b", 0, 3)
	mustSync(t, l)
	want := db.Snapshot()
	tail := l.Bytes()
	putN(db, "b", 3, 3)
	l.Kill = func(p KillPoint) error {
		if p == KillAfterAppend {
			return fmt.Errorf("injected crash")
		}
		return nil
	}
	l.Sync()
	l.Abandon()
	// The crash happened mid-append: cut the appended batch in half.
	walPath := filepath.Join(dir, walName(1))
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	cut := tail + (fi.Size()-tail)/2
	if err := os.Truncate(walPath, cut); err != nil {
		t.Fatal(err)
	}

	got, rec := reopenSnap(t, dir)
	if !bytes.Equal(got, want) {
		t.Fatalf("torn batch partially applied")
	}
	if !rec.Torn || rec.TornOffset != tail || rec.DroppedBytes != cut-tail {
		t.Fatalf("tear geometry = %+v, want truncation back to %d", rec, tail)
	}
	if fi, _ := os.Stat(walPath); fi.Size() != tail {
		t.Fatalf("WAL not truncated to the last committed batch")
	}
}

// TestWholeUncommittedRecordsDropped appends valid op records with no
// commit marker (a crash after some records hit disk but before the
// marker): they must be dropped and truncated away, not applied.
func TestWholeUncommittedRecordsDropped(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	wire(db, l)
	putN(db, "b", 0, 2)
	mustSync(t, l)
	want := db.Snapshot()
	tail := l.Bytes()
	l.Abandon()

	f, err := os.OpenFile(filepath.Join(dir, walName(1)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	rec := appendOp(nil, metadb.Op{Kind: metadb.OpPut, Bucket: "b", Key: []byte("ghost"), Value: []byte("x")})
	if _, err := f.Write(rec); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, r := reopenSnap(t, dir)
	if !bytes.Equal(got, want) {
		t.Fatalf("uncommitted record applied")
	}
	if !r.Torn || r.DroppedOps != 1 || r.TornOffset != tail {
		t.Fatalf("recovery = %+v, want 1 dropped op truncated back to %d", r, tail)
	}
}

// TestCorruptionBelowWatermarkRefused flips a bit inside a synced batch
// at the very tail: with no valid record after it this would look like a
// tear, but the watermark proves the bytes were durably committed, so
// Open must refuse rather than silently truncate committed history.
func TestCorruptionBelowWatermarkRefused(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	wire(db, l)
	putN(db, "b", 0, 3)
	mustSync(t, l)
	l.Abandon()

	walPath := filepath.Join(dir, walName(1))
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x40
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "watermark") {
		t.Fatalf("damage below the watermark not refused: %v", err)
	}
}

// TestCorruptionAmidTailRefused flips a bit in a committed (below-
// watermark) record that has a valid record after it: real corruption of
// acknowledged data, refused via the watermark oracle.
func TestCorruptionAmidTailRefused(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	wire(db, l)
	b := db.CreateBucket("b")
	b.Put([]byte("first"), []byte("record gets damaged"))
	b.Put([]byte("second"), []byte("record stays whole"))
	mustSync(t, l)
	l.Abandon()

	walPath := filepath.Join(dir, walName(1))
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Damage the first op record's payload (well before the later ones).
	data[walHeaderLen+recHeaderSize+2] ^= 0x20
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("non-tail corruption not refused: %v", err)
	}
}

// TestDamageAboveWatermarkTruncatesDespiteValidTail pins the watermark
// oracle's other half: damage in the UNACKNOWLEDGED tail is a crash
// artifact even when a valid record follows it (a multi-page batch whose
// pages were written back out of order before the fsync completed), so
// recovery truncates back to the last commit boundary instead of
// refusing to open.
func TestDamageAboveWatermarkTruncatesDespiteValidTail(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	wire(db, l)
	putN(db, "b", 0, 3)
	mustSync(t, l)
	want := db.Snapshot()
	tail := l.Bytes()
	// A batch lands beyond the watermark (crash between fsync and commit).
	putN(db, "b", 3, 4)
	l.Kill = func(p KillPoint) error {
		if p == KillAfterAppend {
			return fmt.Errorf("injected crash")
		}
		return nil
	}
	l.Sync()
	l.Abandon()
	// Damage an EARLY record of that batch, leaving later records (and
	// the commit marker) intact — the out-of-order-writeback shape.
	walPath := filepath.Join(dir, walName(1))
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[tail+recHeaderSize+1] ^= 0x10
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, rec := reopenSnap(t, dir)
	if !bytes.Equal(got, want) {
		t.Fatalf("recovery did not roll back to the last synced state")
	}
	if !rec.Torn || rec.TornOffset != tail {
		t.Fatalf("recovery = %+v, want truncation back to the watermark %d", rec, tail)
	}
}

// TestMissingCommitWithEpochFilesRefused removes meta.commit from a
// committed repository: the remaining epoch files prove a commit once
// existed, so Open must refuse rather than silently re-initialise an
// empty repository over recoverable metadata — at epoch 1 (a WAL holding
// records) and after a compaction (a higher epoch).
func TestMissingCommitWithEpochFilesRefused(t *testing.T) {
	t.Run("epoch1-wal-records", func(t *testing.T) {
		dir := t.TempDir()
		l, db := openLog(t, dir, Options{})
		wire(db, l)
		putN(db, "b", 0, 3)
		mustSync(t, l)
		l.Close()
		if err := os.Remove(filepath.Join(dir, "meta.commit")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "root of trust") {
			t.Fatalf("lost commit not refused: %v", err)
		}
	})
	t.Run("compacted-epoch", func(t *testing.T) {
		dir := t.TempDir()
		l, db := openLog(t, dir, Options{})
		wire(db, l)
		putN(db, "b", 0, 3)
		if _, err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		l.Close()
		if err := os.Remove(filepath.Join(dir, "meta.commit")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "root of trust") {
			t.Fatalf("lost commit after compaction not refused: %v", err)
		}
	})
}

// TestCrashedFirstInitSweptAndReinitialised pins the benign side of the
// missing-commit rule: a crash during the very first initialisation
// leaves an empty epoch-1 snapshot (and possibly a record-free WAL) with
// no commit — provably worthless, so the next open sweeps them and
// starts fresh instead of refusing.
func TestCrashedFirstInitSweptAndReinitialised(t *testing.T) {
	dir := t.TempDir()
	empty := metadb.New().Snapshot()
	if err := os.WriteFile(filepath.Join(dir, snapName(1)), empty, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walName(1)), walMagic, 0o644); err != nil {
		t.Fatal(err)
	}
	l, db := openLog(t, dir, Options{})
	defer l.Close()
	wire(db, l)
	putN(db, "b", 0, 2)
	mustSync(t, l)
	if l.Recovery().StaleFilesRemoved == 0 {
		t.Fatalf("crashed-init leftovers not swept: %+v", l.Recovery())
	}
}

// TestMissingSnapshotRefused deletes the snapshot the commit references.
func TestMissingSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	wire(db, l)
	putN(db, "b", 0, 2)
	mustSync(t, l)
	l.Close()
	if err := os.Remove(filepath.Join(dir, snapName(1))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "missing snapshot") {
		t.Fatalf("missing snapshot not refused: %v", err)
	}
}

// TestMissingWALRefused deletes the WAL the commit references.
func TestMissingWALRefused(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	wire(db, l)
	putN(db, "b", 0, 2)
	mustSync(t, l)
	l.Close()
	if err := os.Remove(filepath.Join(dir, walName(1))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "missing WAL") {
		t.Fatalf("missing WAL not refused: %v", err)
	}
}

// TestWALShorterThanWatermarkRefused truncates the WAL below the
// committed watermark: durably synced operations are gone.
func TestWALShorterThanWatermarkRefused(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	wire(db, l)
	putN(db, "b", 0, 5)
	mustSync(t, l)
	l.Abandon()
	if err := os.Truncate(filepath.Join(dir, walName(1)), walHeaderLen+4); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "shorter than the synced watermark") {
		t.Fatalf("short WAL not refused: %v", err)
	}
}

// TestCorruptCommitRefused damages meta.commit: the root of trust is
// gone, and guessing an epoch could resurrect a half-compacted past.
func TestCorruptCommitRefused(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	wire(db, l)
	putN(db, "b", 0, 2)
	mustSync(t, l)
	l.Close()
	path := filepath.Join(dir, "meta.commit")
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 0x01
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "meta.commit") {
		t.Fatalf("corrupt commit not refused: %v", err)
	}
}

// TestLegacyMetaDBRefused opens a directory holding a pre-WAL meta.db
// image and no meta.commit: Open must refuse it rather than initialise
// an empty repository over it, and must leave the file byte-for-byte
// untouched with no epoch files created beside it.
func TestLegacyMetaDBRefused(t *testing.T) {
	dir := t.TempDir()
	legacy := metadb.New()
	legacy.CreateBucket("pkgs").Put([]byte("k"), []byte("v"))
	want := legacy.Snapshot()
	path := filepath.Join(dir, "meta.db")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "meta.db") {
		t.Fatalf("pre-WAL meta.db not refused: %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("meta.db changed by the refused open (err %v)", err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 {
		t.Fatalf("refused open left %d entries in the directory, want only meta.db", len(des))
	}
}

// TestCompactionRoundTrip forces compaction and checks the epoch bump,
// the file turnover, and state equivalence.
func TestCompactionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	wire(db, l)
	putN(db, "b", 0, 20)
	mustSync(t, l)
	putN(db, "b", 20, 5)
	st, err := l.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if !st.Compacted || st.SnapshotBytes == 0 || st.Ops != 5 {
		t.Fatalf("compaction stats = %+v", st)
	}
	if l.Epoch() != 2 || l.Bytes() != walHeaderLen {
		t.Fatalf("epoch/length after compaction = %d/%d", l.Epoch(), l.Bytes())
	}
	for _, stale := range []string{snapName(1), walName(1)} {
		if _, err := os.Stat(filepath.Join(dir, stale)); !os.IsNotExist(err) {
			t.Fatalf("old epoch file %s not removed", stale)
		}
	}
	putN(db, "b", 25, 3) // post-compaction appends land in the new WAL
	mustSync(t, l)
	want2 := db.Snapshot()
	l.Close()

	got, rec := reopenSnap(t, dir)
	if !bytes.Equal(got, want2) {
		t.Fatalf("post-compaction state lost")
	}
	if rec.Epoch != 2 || rec.ReplayedOps != 3 {
		t.Fatalf("recovery = %+v, want epoch 2 with 3 replayed ops", rec)
	}
}

// TestSizeTriggeredCompaction pins the CompactBytes trigger.
func TestSizeTriggeredCompaction(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{CompactBytes: 256})
	wire(db, l)
	putN(db, "b", 0, 50)
	st := mustSync(t, l)
	if !st.Compacted {
		t.Fatalf("oversize sync did not compact: %+v", st)
	}
	l.Close()
}

// TestPeriodicCompaction pins the CompactEvery trigger.
func TestPeriodicCompaction(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{CompactEvery: 3})
	wire(db, l)
	for i := 0; i < 3; i++ {
		putN(db, "b", i, 1)
		st := mustSync(t, l)
		if got, want := st.Compacted, i == 2; got != want {
			t.Fatalf("sync %d compacted=%v, want %v", i, got, want)
		}
	}
	l.Close()
}

// TestOversizedDeltaCompacts pins the third trigger: a pending delta
// bigger than the whole database compacts instead of appending — a bulk
// load must not write every intermediate record version.
func TestOversizedDeltaCompacts(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	wire(db, l)
	// Rewrite one key many times: pending grows with every version while
	// the database holds only the last.
	b := db.CreateBucket("b")
	big := bytes.Repeat([]byte("x"), 4096)
	for i := 0; i < 20; i++ {
		b.Put([]byte("churned"), append(big, byte(i)))
	}
	st := mustSync(t, l)
	if !st.Compacted {
		t.Fatalf("oversized delta appended instead of compacting: %+v", st)
	}
	if st.SnapshotBytes > 3*int64(len(big)) {
		t.Fatalf("snapshot wrote %d bytes for a ~%d-byte database", st.SnapshotBytes, len(big))
	}
	l.Close()
}

// TestCompactionCrashWindows drives a kill at each compaction point and
// checks every window reopens to a consistent state: before the commit
// switch the old epoch (without the pending batch), after it the new.
func TestCompactionCrashWindows(t *testing.T) {
	cases := []struct {
		point    KillPoint
		newState bool // reopen sees the state including pending ops
		newEpoch uint64
	}{
		{KillAfterSnapshot, false, 1},
		{KillAfterWALReset, false, 1},
		{KillAfterCompactCommit, true, 2},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("point-%d", tc.point), func(t *testing.T) {
			dir := t.TempDir()
			l, db := openLog(t, dir, Options{})
			wire(db, l)
			putN(db, "b", 0, 5)
			mustSync(t, l)
			oldState := db.Snapshot()
			putN(db, "b", 5, 5) // pending at compaction time
			newState := db.Snapshot()
			l.Kill = func(p KillPoint) error {
				if p == tc.point {
					return fmt.Errorf("injected crash")
				}
				return nil
			}
			if _, err := l.Compact(); err == nil {
				t.Fatal("killed compaction reported success")
			}
			l.Abandon()

			got, rec := reopenSnap(t, dir)
			want := oldState
			if tc.newState {
				want = newState
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("crash window reopened to the wrong state (recovery %+v)", rec)
			}
			if rec.Epoch != tc.newEpoch {
				t.Fatalf("reopened epoch %d, want %d", rec.Epoch, tc.newEpoch)
			}
			// Leftovers of the losing epoch must have been swept.
			des, _ := os.ReadDir(dir)
			for _, de := range des {
				name := de.Name()
				if (strings.HasPrefix(name, "meta.snap-") || strings.HasPrefix(name, "meta.wal-")) &&
					name != snapName(tc.newEpoch) && name != walName(tc.newEpoch) {
					t.Fatalf("stale file %s survived recovery", name)
				}
			}
			if rec.StaleFilesRemoved == 0 && tc.point != KillAfterCompactCommit {
				// Snapshot (and possibly WAL) of the next epoch were written
				// before the crash; recovery must report sweeping them.
				t.Fatalf("no stale files swept after crash at point %d: %+v", tc.point, rec)
			}
		})
	}
}

// TestStickyFailureRefusesFurtherCommits pins that a failed commit
// poisons the log.
func TestStickyFailureRefusesFurtherCommits(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	wire(db, l)
	putN(db, "b", 0, 2)
	l.Kill = func(p KillPoint) error {
		if p == KillAfterAppend {
			return fmt.Errorf("injected failure")
		}
		return nil
	}
	if _, err := l.Sync(); err == nil {
		t.Fatal("killed sync reported success")
	}
	l.Kill = nil
	if _, err := l.Sync(); err == nil {
		t.Fatal("sync after failure not refused")
	}
	if l.Err() == nil {
		t.Fatal("sticky failure not surfaced")
	}
	l.Abandon()
}
