// Package fstree implements a small inode/extent filesystem that lives
// inside a vdisk, standing in for the guest ext4 filesystem of the paper's
// VMIs. Every byte of file data, directory content and filesystem metadata
// is stored in the disk's clusters, so the disk's sparse allocated size and
// its serialized qcow2-like form faithfully reflect filesystem contents —
// including shrinkage when the Expelliarmus decomposer removes packages.
//
// Layout (block size = disk cluster size):
//
//	block 0                superblock
//	blocks 1..b            block allocation bitmap
//	blocks b+1..b+i        inode table (64-byte inodes, up to 6 extents)
//	remaining blocks       file and directory data
//
// Directories store their entries as ordinary file data (inode number,
// type, name records). The root directory is inode 0.
package fstree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"path"
	"sort"
	"strings"

	"expelliarmus/internal/vdisk"
)

// Magic identifies a formatted filesystem.
var Magic = []byte("EXFS")

const (
	inodeSize  = 64
	maxExtents = 6

	modeFree = 0
	modeFile = 1
	modeDir  = 2
)

// RootInode is the inode number of the root directory.
const RootInode uint32 = 0

type extent struct {
	start  uint32 // first block
	blocks uint32 // run length
}

type inode struct {
	mode    byte
	size    int64
	extents []extent
}

// FileInfo describes a file or directory.
type FileInfo struct {
	Path  string
	Size  int64
	IsDir bool
}

// FS is a mounted filesystem. It is not safe for concurrent use, except
// that read-only methods (ReadFile, ReadDir, Stat, Exists, Walk) may run
// concurrently with each other: publish repacks packages in parallel.
//
// Allocation runs on two in-memory indexes, so its cost does not grow
// with how full the filesystem is: the block bitmap (a mirror of the
// on-disk one, written through, padded to whole 64-bit words) and a
// used-inode bitmap (derived from the inode table's modes, never stored).
type FS struct {
	disk       *vdisk.Disk
	blockSize  int
	total      uint32 // total blocks
	bitmapBlk  uint32 // blocks used by the bitmap
	inodeBlk   uint32 // blocks used by the inode table
	maxInodes  uint32
	dataStart  uint32
	bitmap     []byte   // in-memory mirror, written through
	inodesUsed []uint64 // bit i set: inode i is not modeFree
	usedBlocks uint32
	files      int
	dirs       int
}

// emptyFS returns an FS over d with its in-memory indexes sized (and
// zeroed) for the given geometry.
func emptyFS(d *vdisk.Disk, total, bitmapBlk, inodeBlk, maxInodes uint32) *FS {
	bs := d.ClusterSize()
	return &FS{
		disk:       d,
		blockSize:  bs,
		total:      total,
		bitmapBlk:  bitmapBlk,
		inodeBlk:   inodeBlk,
		maxInodes:  maxInodes,
		dataStart:  1 + bitmapBlk + inodeBlk,
		bitmap:     make([]byte, (int(bitmapBlk)*bs+7)&^7),
		inodesUsed: make([]uint64, (maxInodes+63)/64),
	}
}

// Format creates a fresh filesystem on the disk, sized for maxInodes files
// and directories, and returns it mounted.
func Format(d *vdisk.Disk, maxInodes uint32) (*FS, error) {
	bs := d.ClusterSize()
	total := uint32(d.VirtualSize() / int64(bs))
	if total < 8 {
		return nil, fmt.Errorf("fstree: disk too small (%d blocks)", total)
	}
	bitmapBlk := (total/8 + uint32(bs) - 1) / uint32(bs)
	inodeBlk := (maxInodes*inodeSize + uint32(bs) - 1) / uint32(bs)
	dataStart := 1 + bitmapBlk + inodeBlk
	if dataStart >= total {
		return nil, fmt.Errorf("fstree: metadata (%d blocks) exceeds disk (%d blocks)", dataStart, total)
	}
	fs := emptyFS(d, total, bitmapBlk, inodeBlk, maxInodes)
	// Reserve metadata blocks.
	for b := uint32(0); b < dataStart; b++ {
		fs.bitmap[b/8] |= 1 << (b % 8)
	}
	if err := fs.flushBitmap(0, dataStart); err != nil {
		return nil, err
	}
	// Superblock.
	sb := make([]byte, bs)
	copy(sb, Magic)
	binary.BigEndian.PutUint32(sb[4:], uint32(bs))
	binary.BigEndian.PutUint32(sb[8:], total)
	binary.BigEndian.PutUint32(sb[12:], bitmapBlk)
	binary.BigEndian.PutUint32(sb[16:], inodeBlk)
	binary.BigEndian.PutUint32(sb[20:], maxInodes)
	if _, err := d.WriteAt(sb, 0); err != nil {
		return nil, err
	}
	// Root directory.
	root := &inode{mode: modeDir}
	if err := fs.writeInode(RootInode, root); err != nil {
		return nil, err
	}
	fs.dirs = 1
	fs.usedBlocks = dataStart
	return fs, nil
}

// Mount opens an existing filesystem on the disk.
func Mount(d *vdisk.Disk) (*FS, error) {
	bs := d.ClusterSize()
	sb := make([]byte, bs)
	if _, err := d.ReadAt(sb, 0); err != nil {
		return nil, fmt.Errorf("fstree: read superblock: %w", err)
	}
	if !bytes.Equal(sb[:4], Magic) {
		return nil, fmt.Errorf("fstree: bad magic (unformatted disk?)")
	}
	if int(binary.BigEndian.Uint32(sb[4:])) != bs {
		return nil, fmt.Errorf("fstree: superblock block size %d != cluster size %d",
			binary.BigEndian.Uint32(sb[4:]), bs)
	}
	total, bitmapBlk := binary.BigEndian.Uint32(sb[8:]), binary.BigEndian.Uint32(sb[12:])
	inodeBlk, maxInodes := binary.BigEndian.Uint32(sb[16:]), binary.BigEndian.Uint32(sb[20:])
	if uint64(total)*uint64(bs) > uint64(d.VirtualSize()) ||
		uint64(bitmapBlk)*uint64(bs)*8 < uint64(total) ||
		uint64(inodeBlk)*uint64(bs) < uint64(maxInodes)*inodeSize ||
		1+uint64(bitmapBlk)+uint64(inodeBlk) >= uint64(total) {
		return nil, fmt.Errorf("fstree: inconsistent superblock (%d blocks, %d bitmap, %d inode table, %d inodes)",
			total, bitmapBlk, inodeBlk, maxInodes)
	}
	fs := emptyFS(d, total, bitmapBlk, inodeBlk, maxInodes)
	if _, err := d.ReadAt(fs.bitmap[:int(fs.bitmapBlk)*bs], int64(bs)); err != nil {
		return nil, fmt.Errorf("fstree: read bitmap: %w", err)
	}
	for i := range len(fs.bitmap) / 8 {
		fs.usedBlocks += uint32(bits.OnesCount64(fs.blockWord(uint32(i)) & fs.inRange(uint32(i))))
	}
	// Index used inodes and count files and directories, one inode-table
	// block per read.
	buf := make([]byte, max(bs, inodeSize))
	for i := uint32(0); i < fs.maxInodes; i++ {
		slot := int(i) * inodeSize % len(buf)
		if slot == 0 {
			if _, err := d.ReadAt(buf, fs.inodeOffset(i)); err != nil {
				return nil, err
			}
		}
		raw := buf[slot : slot+inodeSize]
		if n := raw[1]; n > maxExtents {
			return nil, fmt.Errorf("fstree: inode %d corrupt extent count %d", i, n)
		}
		switch raw[0] {
		case modeFree:
			continue
		case modeFile:
			fs.files++
		case modeDir:
			fs.dirs++
		}
		fs.inodesUsed[i/64] |= 1 << (i % 64)
	}
	return fs, nil
}

// Disk returns the underlying disk.
func (fs *FS) Disk() *vdisk.Disk { return fs.disk }

// NumFiles returns the number of regular files.
func (fs *FS) NumFiles() int { return fs.files }

// NumDirs returns the number of directories (including the root).
func (fs *FS) NumDirs() int { return fs.dirs }

// BlockSize returns the filesystem block size.
func (fs *FS) BlockSize() int { return fs.blockSize }

// UsedBytes returns the bytes consumed by allocated blocks (metadata and
// data) — the "mounted size" of Table II.
func (fs *FS) UsedBytes() int64 { return int64(fs.usedBlocks) * int64(fs.blockSize) }

// FreeBytes returns the unallocated capacity.
func (fs *FS) FreeBytes() int64 {
	return int64(fs.total-fs.usedBlocks) * int64(fs.blockSize)
}

// --- inode table ---

func (fs *FS) inodeOffset(num uint32) int64 {
	return int64(1+fs.bitmapBlk)*int64(fs.blockSize) + int64(num)*inodeSize
}

func (fs *FS) readInode(num uint32) (*inode, error) {
	if num >= fs.maxInodes {
		return nil, fmt.Errorf("fstree: inode %d out of range", num)
	}
	raw := make([]byte, inodeSize)
	if _, err := fs.disk.ReadAt(raw, fs.inodeOffset(num)); err != nil {
		return nil, err
	}
	ino := &inode{mode: raw[0], size: int64(binary.BigEndian.Uint64(raw[2:]))}
	n := int(raw[1])
	if n > maxExtents {
		return nil, fmt.Errorf("fstree: inode %d corrupt extent count %d", num, n)
	}
	if n > 0 {
		ino.extents = make([]extent, n)
	}
	for i := range ino.extents {
		base := 10 + i*8
		ino.extents[i] = extent{
			start:  binary.BigEndian.Uint32(raw[base:]),
			blocks: binary.BigEndian.Uint32(raw[base+4:]),
		}
	}
	return ino, nil
}

func (fs *FS) writeInode(num uint32, ino *inode) error {
	if num >= fs.maxInodes {
		return fmt.Errorf("fstree: inode %d out of range", num)
	}
	if len(ino.extents) > maxExtents {
		return fmt.Errorf("fstree: inode %d has %d extents, max %d", num, len(ino.extents), maxExtents)
	}
	raw := make([]byte, inodeSize)
	raw[0] = ino.mode
	raw[1] = byte(len(ino.extents))
	binary.BigEndian.PutUint64(raw[2:], uint64(ino.size))
	for i, e := range ino.extents {
		base := 10 + i*8
		binary.BigEndian.PutUint32(raw[base:], e.start)
		binary.BigEndian.PutUint32(raw[base+4:], e.blocks)
	}
	if _, err := fs.disk.WriteAt(raw, fs.inodeOffset(num)); err != nil {
		return err
	}
	if ino.mode == modeFree {
		fs.inodesUsed[num/64] &^= 1 << (num % 64)
	} else {
		fs.inodesUsed[num/64] |= 1 << (num % 64)
	}
	return nil
}

// allocInode returns the lowest-numbered free inode.
func (fs *FS) allocInode() (uint32, error) {
	for i, w := range fs.inodesUsed {
		if w != ^uint64(0) {
			if num := uint32(i*64 + bits.TrailingZeros64(^w)); num < fs.maxInodes {
				return num, nil
			}
			break
		}
	}
	return 0, fmt.Errorf("fstree: out of inodes (%d)", fs.maxInodes)
}

// --- block allocation ---

// blockWord returns the bitmap bits of blocks [64i, 64i+64), block b at
// bit b%64 (the on-disk layout: byte b/8, bit b%8).
func (fs *FS) blockWord(i uint32) uint64 {
	return binary.LittleEndian.Uint64(fs.bitmap[i*8:])
}

// inRange masks the bits of word i that name blocks below fs.total.
func (fs *FS) inRange(i uint32) uint64 {
	if end := fs.total - min(fs.total, i*64); end < 64 {
		return 1<<end - 1
	}
	return ^uint64(0)
}

// nextBlock returns the first block at or after b whose used bit equals
// used, or fs.total if there is none.
func (fs *FS) nextBlock(b uint32, used bool) uint32 {
	for b < fs.total {
		w := fs.blockWord(b / 64)
		if !used {
			w = ^w
		}
		if w >>= b % 64; w != 0 {
			return min(b+uint32(bits.TrailingZeros64(w)), fs.total)
		}
		b = (b/64 + 1) * 64
	}
	return fs.total
}

// nextFreeRun returns the first free run starting at or after b; a run of
// zero blocks means there is none.
func (fs *FS) nextFreeRun(b uint32) extent {
	start := fs.nextBlock(b, false)
	return extent{start: start, blocks: fs.nextBlock(start, true) - start}
}

func (fs *FS) setBlocks(start, n uint32, used bool) error {
	for b := start; b < start+n; b++ {
		if used {
			fs.bitmap[b/8] |= 1 << (b % 8)
		} else {
			fs.bitmap[b/8] &^= 1 << (b % 8)
		}
	}
	if used {
		fs.usedBlocks += n
	} else {
		fs.usedBlocks -= n
	}
	return fs.flushBitmap(start, n)
}

// flushBitmap writes through the bitmap blocks covering [start,start+n).
func (fs *FS) flushBitmap(start, n uint32) error {
	bs := uint32(fs.blockSize)
	firstByte := start / 8
	lastByte := (start + n - 1) / 8
	firstBlk := firstByte / bs
	lastBlk := lastByte / bs
	for blk := firstBlk; blk <= lastBlk; blk++ {
		off := int64(1+blk) * int64(bs)
		_, err := fs.disk.WriteAt(fs.bitmap[blk*bs:(blk+1)*bs], off)
		if err != nil {
			return err
		}
	}
	return nil
}

// allocExtents finds free space for n blocks: the first contiguous run
// that fits if one exists, otherwise the largest free runs (so files stay
// within the inode's maxExtents even when small holes litter the bitmap).
func (fs *FS) allocExtents(n uint32) ([]extent, error) {
	if n == 0 {
		return nil, nil
	}
	out, err := fs.placeExtents(n)
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

// placeExtents chooses allocExtents' placement for n > 0 blocks
// without taking them.
func (fs *FS) placeExtents(n uint32) ([]extent, error) {
	for r := fs.nextFreeRun(fs.dataStart); r.blocks > 0; r = fs.nextFreeRun(r.start + r.blocks) {
		if r.blocks >= n {
			return []extent{{start: r.start, blocks: n}}, nil
		}
	}
	var runs []extent
	for r := fs.nextFreeRun(fs.dataStart); r.blocks > 0; r = fs.nextFreeRun(r.start + r.blocks) {
		runs = append(runs, r)
	}
	// Largest runs first (ties: lowest start) to minimise extent count.
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
		take := min(r.blocks, remaining)
		out = append(out, extent{start: r.start, blocks: take})
		remaining -= take
		if len(out) > maxExtents {
			return nil, fmt.Errorf("fstree: file too fragmented (> %d extents for %d blocks)", maxExtents, n)
		}
	}
	if remaining > 0 {
		return nil, fmt.Errorf("fstree: no space (%d blocks short of %d)", remaining, n)
	}
	// Keep extents in disk order for readability and determinism.
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out, nil
}

func (fs *FS) freeExtents(extents []extent) error {
	for _, e := range extents {
		if err := fs.setBlocks(e.start, e.blocks, false); err != nil {
			return err
		}
		// Return the clusters to the disk so its sparse size shrinks.
		fs.disk.Discard(int64(e.start)*int64(fs.blockSize), int64(e.blocks)*int64(fs.blockSize))
	}
	return nil
}

// --- data I/O ---

func (fs *FS) readData(ino *inode) ([]byte, error) {
	var covered int64
	for _, e := range ino.extents {
		covered += int64(e.blocks) * int64(fs.blockSize)
	}
	if covered < ino.size {
		return nil, fmt.Errorf("fstree: inode extents cover %d bytes short of size %d", ino.size-covered, ino.size)
	}
	out := make([]byte, ino.size)
	off := int64(0)
	for _, e := range ino.extents {
		span := min(int64(e.blocks)*int64(fs.blockSize), ino.size-off)
		if _, err := fs.disk.ReadAt(out[off:off+span], int64(e.start)*int64(fs.blockSize)); err != nil {
			return nil, err
		}
		off += span
	}
	return out, nil
}

// writeData replaces the inode's data, reallocating extents.
func (fs *FS) writeData(ino *inode, data []byte) error {
	if err := fs.freeExtents(ino.extents); err != nil {
		return err
	}
	ino.extents = nil
	ino.size = int64(len(data))
	if len(data) == 0 {
		return nil
	}
	n := uint32((len(data) + fs.blockSize - 1) / fs.blockSize)
	extents, err := fs.allocExtents(n)
	if err != nil {
		return err
	}
	ino.extents = extents
	off := 0
	for _, e := range extents {
		span := int(e.blocks) * fs.blockSize
		if span > len(data)-off {
			span = len(data) - off
		}
		if _, err := fs.disk.WriteAt(data[off:off+span], int64(e.start)*int64(fs.blockSize)); err != nil {
			return err
		}
		off += span
	}
	return nil
}

// --- directories ---

type dirent struct {
	ino  uint32
	mode byte
	name string
}

// scanDirent decodes the directory entry at the start of data — a 4-byte
// inode number, a mode byte, a uvarint name length and the name — and
// returns it with its name still in data, plus the data after it.
func scanDirent(data []byte) (ino uint32, mode byte, name, rest []byte, err error) {
	if len(data) < 5 {
		return 0, 0, nil, nil, io.ErrUnexpectedEOF
	}
	nameLen, n := binary.Uvarint(data[5:])
	if n <= 0 {
		return 0, 0, nil, nil, fmt.Errorf("bad entry name length")
	}
	rest = data[5+n:]
	if nameLen > uint64(len(rest)) {
		return 0, 0, nil, nil, fmt.Errorf("entry name length %d exceeds remaining %d", nameLen, len(rest))
	}
	return binary.BigEndian.Uint32(data), data[4], rest[:nameLen], rest[nameLen:], nil
}

func parseDir(data []byte) ([]dirent, error) {
	count := 0
	for rest := data; len(rest) > 0; count++ {
		var err error
		if _, _, _, rest, err = scanDirent(rest); err != nil {
			return nil, err
		}
	}
	out := make([]dirent, count)
	for i := range out {
		ino, mode, name, rest, _ := scanDirent(data)
		out[i] = dirent{ino: ino, mode: mode, name: string(name)}
		data = rest
	}
	return out, nil
}

// appendDirent appends e's encoding to buf.
func appendDirent(buf []byte, e dirent) []byte {
	buf = binary.BigEndian.AppendUint32(buf, e.ino)
	buf = append(buf, e.mode)
	buf = binary.AppendUvarint(buf, uint64(len(e.name)))
	return append(buf, e.name...)
}

// readDir returns directory num's encoded entries and its inode.
func (fs *FS) readDir(num uint32) ([]byte, *inode, error) {
	ino, err := fs.readInode(num)
	if err != nil {
		return nil, nil, err
	}
	if ino.mode != modeDir {
		return nil, nil, fmt.Errorf("fstree: inode %d is not a directory", num)
	}
	data, err := fs.readData(ino)
	if err != nil {
		return nil, nil, err
	}
	return data, ino, nil
}

func (fs *FS) readDirents(num uint32) ([]dirent, *inode, error) {
	data, ino, err := fs.readDir(num)
	if err != nil {
		return nil, nil, err
	}
	entries, err := parseDir(data)
	if err != nil {
		return nil, nil, fmt.Errorf("fstree: corrupt directory %d: %w", num, err)
	}
	return entries, ino, nil
}

// dirSlot is where a name sits, or would sit, in a directory's encoded
// entries. Every write keeps entries sorted by name, so an entry can be
// added or dropped by splicing its bytes, leaving the same encoding a
// full re-encode of the sorted entries would produce.
type dirSlot struct {
	data  []byte // the directory's encoded entries
	ino   *inode // the directory's inode
	e     dirent // the entry, when found
	start int    // the entry's offset in data, or where it belongs
	end   int    // the end of the entry's bytes, when found
	found bool
}

// findIn looks up name in directory dir, scanning its entries without
// decoding the others.
func (fs *FS) findIn(dir uint32, name string) (dirSlot, error) {
	data, ino, err := fs.readDir(dir)
	if err != nil {
		return dirSlot{}, err
	}
	s := dirSlot{data: data, ino: ino, start: len(data)}
	for off := 0; off < len(data); {
		num, mode, n, rest, err := scanDirent(data[off:])
		if err != nil {
			return dirSlot{}, fmt.Errorf("fstree: corrupt directory %d: %w", dir, err)
		}
		if string(n) >= name {
			s.start = off
			if string(n) == name {
				s.e = dirent{ino: num, mode: mode, name: name}
				s.end, s.found = len(data)-len(rest), true
			}
			break
		}
		off = len(data) - len(rest)
	}
	return s, nil
}

// insert returns the directory's entries with e added at the slot.
func (s dirSlot) insert(e dirent) []byte {
	out := make([]byte, 0, len(s.data)+5+binary.MaxVarintLen64+len(e.name))
	out = appendDirent(append(out, s.data[:s.start]...), e)
	return append(out, s.data[s.start:]...)
}

// remove returns the directory's entries without the slot's entry.
func (s dirSlot) remove() []byte {
	return append(s.data[:s.start], s.data[s.end:]...)
}

// writeDir replaces directory num's entries with data.
func (fs *FS) writeDir(num uint32, ino *inode, data []byte) error {
	if err := fs.writeData(ino, data); err != nil {
		return err
	}
	return fs.writeInode(num, ino)
}

// splitPath cleans p and returns its components; root yields nil.
func splitPath(p string) ([]string, error) {
	clean := path.Clean("/" + p)
	if clean == "/" {
		return nil, nil
	}
	return strings.Split(strings.TrimPrefix(clean, "/"), "/"), nil
}

// resolve returns the inode number the path components parts lead to
// from the root; p names the path in errors.
func (fs *FS) resolve(p string, parts []string) (uint32, error) {
	cur := RootInode
	for _, part := range parts {
		s, err := fs.findIn(cur, part)
		if err != nil {
			return 0, err
		}
		if !s.found {
			return 0, fmt.Errorf("fstree: %s: no such file or directory", p)
		}
		cur = s.e.ino
	}
	return cur, nil
}

// lookup resolves a path to (inode number, inode). The root resolves to
// RootInode.
func (fs *FS) lookup(p string) (uint32, *inode, error) {
	parts, err := splitPath(p)
	if err != nil {
		return 0, nil, err
	}
	cur, err := fs.resolve(p, parts)
	if err != nil {
		return 0, nil, err
	}
	ino, err := fs.readInode(cur)
	if err != nil {
		return 0, nil, err
	}
	return cur, ino, nil
}

// Exists reports whether the path exists.
func (fs *FS) Exists(p string) bool {
	_, _, err := fs.lookup(p)
	return err == nil
}

// Stat returns information about the path.
func (fs *FS) Stat(p string) (FileInfo, error) {
	_, ino, err := fs.lookup(p)
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{Path: path.Clean("/" + p), Size: ino.size, IsDir: ino.mode == modeDir}, nil
}

// MkdirAll creates the directory p and any missing parents.
func (fs *FS) MkdirAll(p string) error {
	parts, err := splitPath(p)
	if err != nil {
		return err
	}
	cur := RootInode
	for _, part := range parts {
		s, err := fs.findIn(cur, part)
		if err != nil {
			return err
		}
		if s.found && s.e.mode != modeDir {
			return fmt.Errorf("fstree: %s: %q exists and is not a directory", p, part)
		}
		if !s.found {
			num, err := fs.allocInode()
			if err != nil {
				return err
			}
			if err := fs.writeInode(num, &inode{mode: modeDir}); err != nil {
				return err
			}
			if err := fs.writeDir(cur, s.ino, s.insert(dirent{ino: num, mode: modeDir, name: part})); err != nil {
				return err
			}
			fs.dirs++
			s.e.ino = num
		}
		cur = s.e.ino
	}
	return nil
}

// WriteFile creates or replaces the file at p with data. Parent
// directories must exist (use MkdirAll).
func (fs *FS) WriteFile(p string, data []byte) error {
	parts, err := splitPath(p)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("fstree: cannot write to /")
	}
	dir, name := parts[:len(parts)-1], parts[len(parts)-1]
	dirNum, s, err := fs.findParent(dir, name)
	if err != nil {
		return fmt.Errorf("fstree: parent of %s: %w", p, err)
	}
	if s.found {
		if s.e.mode == modeDir {
			return fmt.Errorf("fstree: %s is a directory", p)
		}
		// Replace contents in place.
		ino, err := fs.readInode(s.e.ino)
		if err != nil {
			return err
		}
		if err := fs.writeData(ino, data); err != nil {
			return err
		}
		return fs.writeInode(s.e.ino, ino)
	}
	num, err := fs.allocInode()
	if err != nil {
		return err
	}
	ino := &inode{mode: modeFile}
	if err := fs.writeData(ino, data); err != nil {
		return err
	}
	if err := fs.writeInode(num, ino); err != nil {
		return err
	}
	if err := fs.writeDir(dirNum, s.ino, s.insert(dirent{ino: num, mode: modeFile, name: name})); err != nil {
		return err
	}
	fs.files++
	return nil
}

// findParent resolves the directory whose path components are dir and
// finds name's slot in it.
func (fs *FS) findParent(dir []string, name string) (uint32, dirSlot, error) {
	num, err := fs.resolve("/"+strings.Join(dir, "/"), dir)
	if err != nil {
		return 0, dirSlot{}, err
	}
	s, err := fs.findIn(num, name)
	return num, s, err
}

// ReadFile returns the contents of the file at p.
func (fs *FS) ReadFile(p string) ([]byte, error) {
	_, ino, err := fs.lookup(p)
	if err != nil {
		return nil, err
	}
	if ino.mode != modeFile {
		return nil, fmt.Errorf("fstree: %s is a directory", p)
	}
	return fs.readData(ino)
}

// ReadDir lists the entries of the directory at p.
func (fs *FS) ReadDir(p string) ([]FileInfo, error) {
	num, ino, err := fs.lookup(p)
	if err != nil {
		return nil, err
	}
	if ino.mode != modeDir {
		return nil, fmt.Errorf("fstree: %s is not a directory", p)
	}
	entries, _, err := fs.readDirents(num)
	if err != nil {
		return nil, err
	}
	base := path.Clean("/" + p)
	out := make([]FileInfo, 0, len(entries))
	for _, e := range entries {
		child, err := fs.readInode(e.ino)
		if err != nil {
			return nil, err
		}
		out = append(out, FileInfo{
			Path:  path.Join(base, e.name),
			Size:  child.size,
			IsDir: e.mode == modeDir,
		})
	}
	return out, nil
}

// Remove deletes the file or empty directory at p.
func (fs *FS) Remove(p string) error {
	parts, err := splitPath(p)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("fstree: cannot remove /")
	}
	dir, name := parts[:len(parts)-1], parts[len(parts)-1]
	dirNum, s, err := fs.findParent(dir, name)
	if err != nil {
		return err
	}
	if !s.found {
		return fmt.Errorf("fstree: %s: no such file or directory", p)
	}
	ino, err := fs.readInode(s.e.ino)
	if err != nil {
		return err
	}
	if ino.mode == modeDir {
		children, _, err := fs.readDir(s.e.ino)
		if err != nil {
			return err
		}
		if len(children) > 0 {
			return fmt.Errorf("fstree: %s: directory not empty", p)
		}
		fs.dirs--
	} else {
		fs.files--
	}
	if err := fs.freeExtents(ino.extents); err != nil {
		return err
	}
	if err := fs.writeInode(s.e.ino, &inode{mode: modeFree}); err != nil {
		return err
	}
	return fs.writeDir(dirNum, s.ino, s.remove())
}

// RemoveAll deletes p and, if it is a directory, everything below it.
// Removing a non-existent path is not an error.
func (fs *FS) RemoveAll(p string) error {
	_, ino, err := fs.lookup(p)
	if err != nil {
		return nil
	}
	if ino.mode == modeDir {
		infos, err := fs.ReadDir(p)
		if err != nil {
			return err
		}
		for _, fi := range infos {
			if err := fs.RemoveAll(fi.Path); err != nil {
				return err
			}
		}
	}
	parts, _ := splitPath(p)
	if len(parts) == 0 {
		return nil // never remove the root itself
	}
	return fs.Remove(p)
}

// Walk visits every file and directory below root in deterministic
// (sorted) order, calling fn for each. Returning a non-nil error from fn
// aborts the walk.
func (fs *FS) Walk(root string, fn func(info FileInfo) error) error {
	num, ino, err := fs.lookup(root)
	if err != nil {
		return err
	}
	base := path.Clean("/" + root)
	if ino.mode != modeDir {
		return fn(FileInfo{Path: base, Size: ino.size, IsDir: false})
	}
	entries, _, err := fs.readDirents(num)
	if err != nil {
		return err
	}
	for _, e := range entries {
		child := path.Join(base, e.name)
		ci, err := fs.readInode(e.ino)
		if err != nil {
			return err
		}
		if ci.mode == modeDir {
			if err := fn(FileInfo{Path: child, Size: ci.size, IsDir: true}); err != nil {
				return err
			}
			if err := fs.Walk(child, fn); err != nil {
				return err
			}
		} else {
			if err := fn(FileInfo{Path: child, Size: ci.size, IsDir: false}); err != nil {
				return err
			}
		}
	}
	return nil
}
