// Package pkgmgr implements the guest package manager the paper drives
// through libguestfs (Sec. V): a dpkg/apt analogue that maintains a status
// database inside the guest filesystem, installs and removes binary
// packages, recreates binary packages from installed files (dpkg-repack,
// the core of VMI publishing), auto-removes dependencies that are no longer
// required (Algorithm 1 line 10), and resolves dependency closures and
// installation order with full support for dependency cycles (the paper's
// libc6/perl-base/dpkg example).
package pkgmgr

import (
	"fmt"
	"path"
	"sort"
	"strings"

	"expelliarmus/internal/fstree"
	"expelliarmus/internal/pkgfmt"
	"expelliarmus/internal/pkgmeta"
)

// StatusPath is the guest path of the package status database.
const StatusPath = "/var/lib/dpkg/status"

// InfoDir is the guest directory holding per-package file lists.
const InfoDir = "/var/lib/dpkg/info"

// Manager operates the package database of one guest filesystem.
type Manager struct {
	fs *fstree.FS
}

// New returns a manager for the guest filesystem, initialising the package
// database directories if missing.
func New(fs *fstree.FS) (*Manager, error) {
	m := &Manager{fs: fs}
	if err := fs.MkdirAll(InfoDir); err != nil {
		return nil, fmt.Errorf("pkgmgr: init: %w", err)
	}
	if !fs.Exists(StatusPath) {
		if err := fs.WriteFile(StatusPath, nil); err != nil {
			return nil, fmt.Errorf("pkgmgr: init status: %w", err)
		}
	}
	return m, nil
}

// Installed returns the installed packages sorted by name.
func (m *Manager) Installed() ([]pkgmeta.Package, error) {
	data, err := m.fs.ReadFile(StatusPath)
	if err != nil {
		return nil, fmt.Errorf("pkgmgr: read status: %w", err)
	}
	pkgs, err := pkgmeta.ParseStatus(string(data))
	if err != nil {
		return nil, fmt.Errorf("pkgmgr: parse status: %w", err)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Name < pkgs[j].Name })
	return pkgs, nil
}

// Get returns the installed package with the given name.
func (m *Manager) Get(name string) (pkgmeta.Package, bool, error) {
	pkgs, err := m.Installed()
	if err != nil {
		return pkgmeta.Package{}, false, err
	}
	for _, p := range pkgs {
		if p.Name == name {
			return p, true, nil
		}
	}
	return pkgmeta.Package{}, false, nil
}

// IsInstalled reports whether the named package is installed.
func (m *Manager) IsInstalled(name string) bool {
	_, ok, err := m.Get(name)
	return err == nil && ok
}

func (m *Manager) writeStatus(pkgs []pkgmeta.Package) error {
	return m.fs.WriteFile(StatusPath, []byte(pkgmeta.FormatStatus(pkgs)))
}

func listPath(name string) string { return path.Join(InfoDir, name+".list") }

// OwnedFiles returns the absolute paths installed by the named package.
func (m *Manager) OwnedFiles(name string) ([]string, error) {
	data, err := m.fs.ReadFile(listPath(name))
	if err != nil {
		return nil, fmt.Errorf("pkgmgr: %s: no file list: %w", name, err)
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		if line != "" {
			out = append(out, line)
		}
	}
	return out, nil
}

// InstallPackage installs metadata and files directly (the builder's fast
// path, equivalent to unpacking a binary package).
func (m *Manager) InstallPackage(p pkgmeta.Package, files []pkgfmt.File) error {
	status, err := m.fs.ReadFile(StatusPath)
	if err != nil {
		return fmt.Errorf("pkgmgr: read status: %w", err)
	}
	at, err := statusInsertPoint(string(status), p.Name)
	if err != nil {
		return err
	}
	paths := make([]string, 0, len(files))
	for _, f := range files {
		dir := path.Dir(f.Path)
		if err := m.fs.MkdirAll(dir); err != nil {
			return fmt.Errorf("pkgmgr: install %s: %w", p.Name, err)
		}
		if err := m.fs.WriteFile(f.Path, f.Data); err != nil {
			return fmt.Errorf("pkgmgr: install %s: %w", p.Name, err)
		}
		paths = append(paths, f.Path)
	}
	sort.Strings(paths)
	if err := m.fs.WriteFile(listPath(p.Name), []byte(strings.Join(paths, "\n"))); err != nil {
		return err
	}
	// Splice p's stanza into the sorted status file: the same bytes as
	// FormatStatus over every installed package, without re-parsing and
	// re-formatting the others.
	stanza := pkgmeta.FormatControl(p)
	out := make([]byte, 0, len(status)+len(stanza)+1)
	switch {
	case len(status) == 0:
		out = append(out, stanza...)
	case at == len(status):
		out = append(append(append(out, status...), '\n'), stanza...)
	default:
		out = append(append(append(out, status[:at]...), stanza...), '\n')
		out = append(out, status[at:]...)
	}
	return m.fs.WriteFile(StatusPath, out)
}

// statusInsertPoint returns the offset in a status file (as FormatStatus
// writes it: name-sorted stanzas, each opening with its Package line,
// separated by blank lines) at which the stanza of package name belongs,
// or an error if name is already installed.
func statusInsertPoint(status, name string) (int, error) {
	for off := 0; off < len(status); {
		line, _, _ := strings.Cut(status[off:], "\n")
		got, ok := strings.CutPrefix(line, "Package: ")
		if !ok {
			return 0, fmt.Errorf("pkgmgr: parse status: stanza at byte %d does not open with a Package line", off)
		}
		end := strings.Index(status[off:], "\n\n")
		if got == name {
			stanza := status[off:]
			if end >= 0 {
				stanza = stanza[:end]
			}
			q, err := pkgmeta.ParseControl(stanza)
			if err != nil {
				return 0, fmt.Errorf("pkgmgr: parse status: %w", err)
			}
			return 0, fmt.Errorf("pkgmgr: %s already installed (version %s)", name, q.Version)
		}
		if got > name {
			return off, nil
		}
		if end < 0 {
			break
		}
		off += end + 2
	}
	return len(status), nil
}

// Install unpacks and registers a binary package blob.
func (m *Manager) Install(blob []byte) error {
	p, files, err := pkgfmt.Extract(blob)
	if err != nil {
		return err
	}
	return m.InstallPackage(p, files)
}

// Remove uninstalls the named package: its files are deleted (empty parent
// directories are pruned) and its database records dropped.
func (m *Manager) Remove(name string) error {
	pkgs, err := m.Installed()
	if err != nil {
		return err
	}
	idx := -1
	for i, p := range pkgs {
		if p.Name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("pkgmgr: %s is not installed", name)
	}
	files, err := m.OwnedFiles(name)
	if err != nil {
		return err
	}
	dirs := map[string]bool{}
	for _, f := range files {
		if m.fs.Exists(f) {
			if err := m.fs.Remove(f); err != nil {
				return fmt.Errorf("pkgmgr: remove %s: %w", name, err)
			}
		}
		dirs[path.Dir(f)] = true
	}
	m.pruneEmptyDirs(dirs)
	if err := m.fs.Remove(listPath(name)); err != nil {
		return err
	}
	pkgs = append(pkgs[:idx], pkgs[idx+1:]...)
	return m.writeStatus(pkgs)
}

// pruneEmptyDirs removes now-empty directories bottom-up.
func (m *Manager) pruneEmptyDirs(dirs map[string]bool) {
	ordered := make([]string, 0, len(dirs))
	for d := range dirs {
		ordered = append(ordered, d)
	}
	// Deepest first.
	sort.Slice(ordered, func(i, j int) bool { return len(ordered[i]) > len(ordered[j]) })
	for _, d := range ordered {
		for d != "/" {
			entries, err := m.fs.ReadDir(d)
			if err != nil || len(entries) > 0 {
				break
			}
			if err := m.fs.Remove(d); err != nil {
				break
			}
			d = path.Dir(d)
		}
	}
}

// Repack recreates the binary package for the named installed package from
// its on-disk files and metadata — the dpkg-repack step of VMI publishing
// (Sec. V-3).
func (m *Manager) Repack(name string) ([]byte, error) {
	p, ok, err := m.Get(name)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("pkgmgr: %s is not installed", name)
	}
	paths, err := m.OwnedFiles(name)
	if err != nil {
		return nil, err
	}
	files := make([]pkgfmt.File, 0, len(paths))
	for _, fp := range paths {
		data, err := m.fs.ReadFile(fp)
		if err != nil {
			return nil, fmt.Errorf("pkgmgr: repack %s: %w", name, err)
		}
		files = append(files, pkgfmt.File{Path: fp, Data: data})
	}
	return pkgfmt.Build(p, files)
}

// installedUniverse adapts the installed package set to the Universe
// interface for closure computations.
type installedUniverse map[string]pkgmeta.Package

func (u installedUniverse) Lookup(name string) (pkgmeta.Package, bool) {
	p, ok := u[name]
	return p, ok
}

// Autoremove removes every installed, non-essential package that is not in
// keep and not (transitively) required by a kept or essential package —
// Algorithm 1's removeUnusedDependencies. It returns the removed package
// names in sorted order.
func (m *Manager) Autoremove(keep []string) ([]string, error) {
	pkgs, err := m.Installed()
	if err != nil {
		return nil, err
	}
	u := make(installedUniverse, len(pkgs))
	for _, p := range pkgs {
		u[p.Name] = p
	}
	roots := append([]string(nil), keep...)
	for _, p := range pkgs {
		if p.Essential {
			roots = append(roots, p.Name)
		}
	}
	marked := map[string]bool{}
	queue := roots
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		if marked[name] {
			continue
		}
		p, ok := u[name]
		if !ok {
			continue // kept name not installed: ignore
		}
		marked[name] = true
		queue = append(queue, p.Depends...)
	}
	var removed []string
	for _, p := range pkgs {
		if !marked[p.Name] {
			removed = append(removed, p.Name)
		}
	}
	sort.Strings(removed)
	for _, name := range removed {
		if err := m.Remove(name); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// InstalledBytes returns the sum of InstalledSize over installed packages.
func (m *Manager) InstalledBytes() (int64, error) {
	pkgs, err := m.Installed()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, p := range pkgs {
		total += p.InstalledSize
	}
	return total, nil
}
