package fstree

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"expelliarmus/internal/vdisk"
)

// --- reference allocator: the original linear inode probe and
// bit-by-bit free-run collection, kept to pin the indexed allocator's
// placement ---

func refAllocInode(fs *FS) (uint32, error) {
	for i := uint32(0); i < fs.maxInodes; i++ {
		ino, err := fs.readInode(i)
		if err != nil {
			return 0, err
		}
		if ino.mode == modeFree {
			return i, nil
		}
	}
	return 0, fmt.Errorf("fstree: out of inodes (%d)", fs.maxInodes)
}

func refBlockUsed(fs *FS, b uint32) bool { return fs.bitmap[b/8]&(1<<(b%8)) != 0 }

func refFreeRuns(fs *FS) []extent {
	var runs []extent
	b := fs.dataStart
	for b < fs.total {
		for b < fs.total && refBlockUsed(fs, b) {
			b++
		}
		if b >= fs.total {
			break
		}
		start := b
		for b < fs.total && !refBlockUsed(fs, b) {
			b++
		}
		runs = append(runs, extent{start: start, blocks: b - start})
	}
	return runs
}

func refPlaceExtents(runs []extent, n uint32) ([]extent, error) {
	for _, r := range runs {
		if r.blocks >= n {
			return []extent{{start: r.start, blocks: n}}, nil
		}
	}
	runs = append([]extent(nil), runs...)
	sort.Slice(runs, func(i, j int) bool {
		if runs[i].blocks != runs[j].blocks {
			return runs[i].blocks > runs[j].blocks
		}
		return runs[i].start < runs[j].start
	})
	var out []extent
	remaining := n
	for _, r := range runs {
		if remaining == 0 {
			break
		}
		take := r.blocks
		if take > remaining {
			take = remaining
		}
		out = append(out, extent{start: r.start, blocks: take})
		remaining -= take
		if len(out) > maxExtents {
			return nil, fmt.Errorf("too fragmented")
		}
	}
	if remaining > 0 {
		return nil, fmt.Errorf("no space")
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out, nil
}

func refAllocExtents(fs *FS, n uint32) ([]extent, error) {
	if n == 0 {
		return nil, nil
	}
	out, err := refPlaceExtents(refFreeRuns(fs), n)
	if err != nil {
		return nil, err
	}
	for _, e := range out {
		if err := fs.setBlocks(e.start, e.blocks, true); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkAllocMatchesRef asserts that, in fs's current state, the indexed
// allocator picks what the reference picks: the same next inode, and the
// same extents for every request size that exercises a distinct branch
// (each free-run length and one more, the fragmented fallback up to the
// total free space, and one past it).
func checkAllocMatchesRef(t *testing.T, fs *FS, where string) {
	t.Helper()
	gotIno, gotErr := fs.allocInode()
	wantIno, wantErr := refAllocInode(fs)
	if gotIno != wantIno || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: allocInode = %d, %v; reference %d, %v", where, gotIno, gotErr, wantIno, wantErr)
	}
	runs := refFreeRuns(fs)
	sizes := map[uint32]bool{1: true, 2: true, 3: true}
	var free uint32
	for _, r := range runs {
		sizes[r.blocks] = true
		sizes[r.blocks+1] = true
		free += r.blocks
	}
	for _, n := range []uint32{free - 1, free, free + 1} {
		if n > 0 {
			sizes[n] = true
		}
	}
	for n := range sizes {
		got, gotErr := fs.placeExtents(n)
		want, wantErr := refPlaceExtents(runs, n)
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: placeExtents(%d) = %v, %v; reference %v, %v", where, n, got, gotErr, want, wantErr)
		}
	}
	for i := uint32(0); i < fs.maxInodes; i++ {
		ino, err := fs.readInode(i)
		if err != nil {
			t.Fatal(err)
		}
		if indexed := fs.inodesUsed[i/64]&(1<<(i%64)) != 0; indexed != (ino.mode != modeFree) {
			t.Fatalf("%s: inode %d mode %d, index says used=%v", where, i, ino.mode, indexed)
		}
	}
}

// TestPlaceExtentsRandomBitmaps compares the word-at-a-time placement
// with the reference on random block bitmaps of every density, on disks
// that end inside, at and just past a bitmap word, for every request size
// up to one past the free space.
func TestPlaceExtentsRandomBitmaps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, blocks := range []int64{127, 128, 129, 191, 200, 256} {
		for trial := 0; trial < 40; trial++ {
			fs, err := Format(vdisk.New("bits", blocks*vdisk.DefaultClusterSize, vdisk.DefaultClusterSize), 16)
			if err != nil {
				t.Fatal(err)
			}
			density := rng.Float64()
			for b := fs.dataStart; b < fs.total; b++ {
				if rng.Float64() < density || (trial%4 == 0 && b+10 > fs.total) {
					fs.bitmap[b/8] |= 1 << (b % 8)
				}
			}
			runs := refFreeRuns(fs)
			var free uint32
			for _, r := range runs {
				free += r.blocks
			}
			for n := uint32(1); n <= free+1; n++ {
				got, gotErr := fs.placeExtents(n)
				want, wantErr := refPlaceExtents(runs, n)
				if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
					t.Fatalf("%d blocks, trial %d: placeExtents(%d) = %v, %v; reference %v, %v",
						blocks, trial, n, got, gotErr, want, wantErr)
				}
			}
		}
	}
}

// TestAllocatorMatchesReference drives seeded random sequences of
// WriteFile (new and replace), Remove, MkdirAll and remount through two
// filesystems: live, which keeps its indexes up to date across every
// operation, and remounted, which rebuilds them from disk before each
// one. Both must stay byte-identical on disk, and before every operation
// the indexed allocator must choose the reference allocator's inode and
// extents.
func TestAllocatorMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			// A small disk (not a whole number of bitmap words) and inode
			// table, so sequences hit fragmentation, ENOSPC and
			// out-of-inodes.
			live, err := Format(vdisk.New("live", (256+37)*vdisk.DefaultClusterSize, vdisk.DefaultClusterSize), 96)
			if err != nil {
				t.Fatal(err)
			}
			remounted, err := Mount(live.Disk().Clone("remounted"))
			if err != nil {
				t.Fatal(err)
			}
			dirs := []string{"/", "/a", "/a/b", "/c", "/c/d/e"}
			for step := 0; step < 250; step++ {
				where := fmt.Sprintf("step %d", step)
				checkAllocMatchesRef(t, live, where)
				if remounted, err = Mount(remounted.Disk()); err != nil {
					t.Fatalf("%s: remount: %v", where, err)
				}
				p := fmt.Sprintf("%s/f%d", dirs[rng.Intn(len(dirs))], rng.Intn(12))
				var op func(fs *FS) error
				switch k := rng.Intn(10); {
				case k < 5: // create or replace
					size := rng.Intn(12 * vdisk.DefaultClusterSize)
					if rng.Intn(8) == 0 {
						size = rng.Intn(120 * vdisk.DefaultClusterSize)
					}
					data := make([]byte, size)
					rng.Read(data)
					op = func(fs *FS) error { return fs.WriteFile(p, data) }
				case k < 7:
					op = func(fs *FS) error { return fs.Remove(p) }
				case k < 8:
					d := dirs[rng.Intn(len(dirs))]
					op = func(fs *FS) error { return fs.MkdirAll(d) }
				case k < 9:
					d := dirs[rng.Intn(len(dirs))]
					op = func(fs *FS) error { return fs.RemoveAll(d) }
				default:
					op = func(fs *FS) error {
						_, err := Mount(fs.Disk())
						return err
					}
					if live, err = Mount(live.Disk()); err != nil {
						t.Fatalf("%s: remount live: %v", where, err)
					}
				}
				errLive, errRemounted := op(live), op(remounted)
				if fmt.Sprint(errLive) != fmt.Sprint(errRemounted) {
					t.Fatalf("%s: live error %v, remounted error %v", where, errLive, errRemounted)
				}
				if !bytes.Equal(live.Disk().Serialize(), remounted.Disk().Serialize()) {
					t.Fatalf("%s: disks diverged", where)
				}
			}
		})
	}
}

// TestAllocatorSequenceMatchesReference runs one seeded sequence of
// allocator calls — file and directory creation, replacement, removal and
// remount — against the indexed allocator on one disk and the reference
// allocator on another, through the same inode and bitmap write paths.
// Inode numbers, extents and serialized disks must be identical at every
// step.
func TestAllocatorSequenceMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mk := func(name string) *FS {
			fs, err := Format(vdisk.New(name, (512+13)*vdisk.DefaultClusterSize, vdisk.DefaultClusterSize), 200)
			if err != nil {
				t.Fatal(err)
			}
			return fs
		}
		got, want := mk("indexed"), mk("reference")
		live := map[uint32]*inode{} // inode number -> inode, identical on both
		for step := 0; step < 600; step++ {
			where := fmt.Sprintf("seed %d step %d", seed, step)
			var nums []uint32
			for num := range live {
				nums = append(nums, num)
			}
			sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
			switch k := rng.Intn(10); {
			case k < 5 || len(nums) == 0: // create a file or directory
				gotNum, gotErr := got.allocInode()
				wantNum, wantErr := refAllocInode(want)
				if gotNum != wantNum || (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s: allocInode %d, %v; reference %d, %v", where, gotNum, gotErr, wantNum, wantErr)
				}
				if gotErr != nil {
					continue
				}
				ino := &inode{mode: modeDir}
				if rng.Intn(3) > 0 {
					n := uint32(rng.Intn(40))
					ge, gErr := got.allocExtents(n)
					we, wErr := refAllocExtents(want, n)
					if !reflect.DeepEqual(ge, we) || (gErr == nil) != (wErr == nil) {
						t.Fatalf("%s: allocExtents(%d) %v, %v; reference %v, %v", where, n, ge, gErr, we, wErr)
					}
					if gErr != nil {
						continue
					}
					ino = &inode{mode: modeFile, size: int64(n) * int64(got.blockSize), extents: ge}
				}
				for _, fs := range []*FS{got, want} {
					if err := fs.writeInode(gotNum, ino); err != nil {
						t.Fatal(err)
					}
				}
				live[gotNum] = ino
			case k < 7: // replace a file's data
				num := nums[rng.Intn(len(nums))]
				ino := live[num]
				if ino.mode != modeFile {
					continue
				}
				n := uint32(rng.Intn(60))
				for _, fs := range []*FS{got, want} {
					if err := fs.freeExtents(ino.extents); err != nil {
						t.Fatal(err)
					}
				}
				ge, gErr := got.allocExtents(n)
				we, wErr := refAllocExtents(want, n)
				if !reflect.DeepEqual(ge, we) || (gErr == nil) != (wErr == nil) {
					t.Fatalf("%s: allocExtents(%d) %v, %v; reference %v, %v", where, n, ge, gErr, we, wErr)
				}
				if gErr != nil {
					ge, n = nil, 0
				}
				ino = &inode{mode: modeFile, size: int64(n) * int64(got.blockSize), extents: ge}
				for _, fs := range []*FS{got, want} {
					if err := fs.writeInode(num, ino); err != nil {
						t.Fatal(err)
					}
				}
				live[num] = ino
			case k < 9: // remove
				num := nums[rng.Intn(len(nums))]
				for _, fs := range []*FS{got, want} {
					if err := fs.freeExtents(live[num].extents); err != nil {
						t.Fatal(err)
					}
					if err := fs.writeInode(num, &inode{mode: modeFree}); err != nil {
						t.Fatal(err)
					}
				}
				delete(live, num)
			default:
				var err error
				if got, err = Mount(got.Disk()); err != nil {
					t.Fatal(err)
				}
				if want, err = Mount(want.Disk()); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(got.Disk().Serialize(), want.Disk().Serialize()) {
				t.Fatalf("%s: serialized disks differ", where)
			}
		}
	}
}

// countingReaderAt counts the reads a lazily deserialized disk issues.
type countingReaderAt struct {
	r     *bytes.Reader
	calls int
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.calls++
	return c.r.ReadAt(p, off)
}

// lazyFSWithInodes formats a filesystem, fills `used` inodes (directories
// under /fill plus one file each), serializes it and mounts it again over
// a counting lazy source, as assembly mounts a stored base image.
func lazyFSWithInodes(t testing.TB, used int) (*FS, *countingReaderAt) {
	t.Helper()
	fs, err := Format(vdisk.New("base", 64<<20, vdisk.DefaultClusterSize), 5000)
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"/fill", "/target"} {
		if err := fs.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; fs.NumFiles()+fs.NumDirs() < used; i++ {
		dir := fmt.Sprintf("/fill/d%03d", i/50)
		if err := fs.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(fmt.Sprintf("%s/f%02d", dir, i%50), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	img := fs.Disk().Serialize()
	src := &countingReaderAt{r: bytes.NewReader(img)}
	d, err := vdisk.DeserializeLazy("lazy", src, int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	mounted, err := Mount(d)
	if err != nil {
		t.Fatal(err)
	}
	return mounted, src
}

// TestNewFileReadsIndependentOfInodesInUse: creating a file on a lazily
// mounted base issues the same number of source reads whether 100 or
// 4,000 inodes are in use — allocation consults the in-memory indexes,
// not the inode table.
func TestNewFileReadsIndependentOfInodesInUse(t *testing.T) {
	reads := map[int]int{}
	for _, used := range []int{100, 4000} {
		fs, src := lazyFSWithInodes(t, used)
		src.calls = 0
		if err := fs.WriteFile("/target/new", bytes.Repeat([]byte{7}, 10000)); err != nil {
			t.Fatal(err)
		}
		reads[used] = src.calls
	}
	t.Logf("lazy reads per new-file WriteFile: %v", reads)
	if reads[100] != reads[4000] {
		t.Fatalf("new-file WriteFile issued %d lazy reads with 100 inodes in use, %d with 4000", reads[100], reads[4000])
	}
}
