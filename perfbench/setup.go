package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/core"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/vmi"
	"expelliarmus/internal/vmirepo"
)

// ideBuilds is how many IDE build-series images join the 19 Table II
// templates in the population.
const ideBuilds = 4

// member is one population image with its reference digest.
type member struct {
	img *vmi.Image
	// raw is the image's serialized size as built; assembled is the size
	// a retrieval streams, which is what the retrieval cache stores.
	raw, assembled int64
	ref            [32]byte
}

// population is what setup hands the timed phase: the built images, a
// prepared repository directory holding all of them (closed and synced),
// and the reference digests.
type population struct {
	members []member
	byName  map[string]int
	// prepared is a closed repository directory with every member
	// published under its template name.
	prepared string
}

func newDevice() *simio.Device {
	return simio.NewDevice(simio.PaperProfile().Scaled(catalog.ByteScale, catalog.FileScale))
}

// parallel runs f(i) for i in [0, n) on `clients` goroutines and returns
// the first error.
func parallel(n int, f func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  int
	)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// buildPopulation builds the 19 Table II templates plus the IDE series,
// publishes them into a fresh disk repository (Sync after each publish,
// the benchmark's flush policy), and takes each one's reference digest
// from a cache-off RetrieveTo. Layer timings land in tm.
func buildPopulation(dir string, tm *timings) (*population, error) {
	tpls := append(catalog.Paper19(), catalog.IDEBuilds(ideBuilds)...)
	b := builder.New(catalog.NewUniverse())
	p := &population{members: make([]member, len(tpls)), byName: map[string]int{}, prepared: dir}
	err := parallel(len(tpls), func(i int) error {
		t0 := time.Now()
		img, err := b.Build(tpls[i])
		if err != nil {
			return fmt.Errorf("build %s: %w", tpls[i].Name, err)
		}
		tm.add("builder.build", time.Since(t0))
		p.members[i] = member{img: img, raw: int64(len(img.Serialize()))}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, m := range p.members {
		p.byName[m.img.Name] = i
	}

	sys, _, err := openSystem(dir, core.Options{})
	if err != nil {
		return nil, err
	}
	err = prepare(sys, p, tm)
	if cerr := sys.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close prepared repository: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// prepare publishes every member under its template name and takes the
// reference digests.
func prepare(sys *core.System, p *population, tm *timings) error {
	for _, m := range p.members {
		img := m.img.Clone()
		t0 := time.Now()
		if _, err := sys.Publish(img); err != nil {
			return fmt.Errorf("publish %s: %w", m.img.Name, err)
		}
		t1 := time.Now()
		if _, err := sys.Sync(); err != nil {
			return fmt.Errorf("sync after %s: %w", m.img.Name, err)
		}
		tm.add("core.publish", t1.Sub(t0))
		tm.add("vmirepo.sync", time.Since(t1))
	}
	return parallel(len(p.members), func(i int) error {
		m := &p.members[i]
		sink := newHashSink(true)
		n, err := timedRetrieve(sys, m.img.Name, sink, tm)
		if err != nil {
			return fmt.Errorf("reference retrieve %s: %w", m.img.Name, err)
		}
		m.assembled, m.ref = n, sink.sum()
		return nil
	})
}

// openSystem opens (or creates) a disk repository and reports how long
// the open took.
func openSystem(dir string, opts core.Options) (*core.System, time.Duration, error) {
	dev := newDevice()
	t0 := time.Now()
	repo, err := vmirepo.OpenAt(dir, dev)
	if err != nil {
		return nil, 0, fmt.Errorf("open repository %s: %w", dir, err)
	}
	sys := core.NewSystemWithRepo(repo, dev, opts)
	return sys, time.Since(t0), nil
}

// timedRetrieve runs RetrieveTo into sink and records the assemble
// (call to first byte) and stream (first byte to return) split.
func timedRetrieve(sys *core.System, name string, sink *hashSink, tm *timings) (int64, error) {
	t0 := time.Now()
	n, _, err := sys.RetrieveTo(sink, name)
	end := time.Now()
	if err == nil && !sink.first.IsZero() {
		tm.add("core.retrieve.assemble", sink.first.Sub(t0))
		tm.add("core.retrieve.stream", end.Sub(sink.first))
	}
	return n, err
}

// copyDir copies a closed repository directory.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(to)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
