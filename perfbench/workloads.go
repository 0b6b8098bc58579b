package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"expelliarmus/internal/client"
	"expelliarmus/internal/core"
	"expelliarmus/internal/server"
	"expelliarmus/internal/vmi"
	"expelliarmus/internal/vmirepo"
	"expelliarmus/internal/wire"
)

// workload is one named traffic shape.
type workload struct {
	name string
	// remote drives a loopback server through client.Client; otherwise
	// the clients call core.System in-process.
	remote bool
	// fresh starts the timed phase from an empty repository instead of a
	// copy of the prepared one.
	fresh bool
	// primary is the op type the gated latencies cover.
	primary opKind
}

var workloads = []workload{
	{name: "publish-durable", fresh: true, primary: opPublish},
	{name: "retrieve-cold", primary: opRetrieve},
	{name: "remote-mixed", remote: true, primary: opRetrieve},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type opKind int

const (
	opPublish opKind = iota
	opRetrieve
	opRemove
	numKinds
)

var kindNames = [numKinds]string{"publish", "retrieve", "remove"}

// op is one generated request.
type op struct {
	id   int64
	kind opKind
	name string
	tpl  int // population index: the image published, or the reference
}

// published is a name a publish op added.
type published struct {
	name  string
	tpl   int
	acked bool
}

// generator turns the seed into the op sequence. The program sees only
// the images and requests it produces.
type generator struct {
	mu    sync.Mutex
	w     workload
	pop   *population
	rng   *rand.Rand
	seq   int64
	round []int // remaining templates of the current shuffled round
	// gap: a template recurs no sooner than gap picks later; last holds
	// the previous round's final gap picks.
	gap  int
	last []int
	hot  []int
	zipf *rand.Zipf
	// added is the FIFO of names publish ops created; acked keeps the
	// acknowledged ones in acknowledgement order. removeNext says the
	// next write is a remove.
	added      []*published
	removeNext bool
	acked      []published
	liveRaw    int64 // raw serialized bytes of the images live in the repository
}

// remote-mixed draws a write with probability mixWrite, else a retrieve.
// Writes alternate between publishing a new name and removing the oldest
// added one, so the live set stays at the population plus at most one
// name and the storage ratio does not drift with the run's op count.
const (
	mixWrite = 0.15
	zipfS    = 2
)

func newGenerator(w workload, pop *population, seed int64) *generator {
	g := &generator{w: w, pop: pop, rng: rand.New(rand.NewSource(seed))}
	if !w.fresh {
		for _, m := range pop.members {
			g.liveRaw += m.raw
		}
	}
	// More picks between two of one template than the cache holds
	// entries, so retrieve-cold's lookups never find the image still
	// cached: hits would depend on the seed's round boundaries.
	smallest := pop.members[0].assembled
	for _, m := range pop.members {
		smallest = min(smallest, m.assembled)
	}
	g.gap = int(cacheBudget/smallest) + 1
	g.hot = hotSet(pop)
	g.zipf = rand.NewZipf(g.rng, zipfS, 1, uint64(len(g.hot)-1))
	return g
}

// hotSet is the remote-mixed retrieval set: the smallest images whose
// assembled bytes together stay within half the cache budget, in Zipf
// rank order (smallest most popular).
func hotSet(pop *population) []int {
	idx := make([]int, len(pop.members))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return pop.members[idx[a]].assembled < pop.members[idx[b]].assembled })
	var hot []int
	var sum int64
	for _, i := range idx {
		if sum+pop.members[i].assembled > cacheBudget/2 {
			break
		}
		sum += pop.members[i].assembled
		hot = append(hot, i)
	}
	return hot
}

// nextTemplate walks seeded shuffled rounds of the population: every
// template comes up once per round, in an order the seed picks, and the
// first gap picks of a round avoid the previous round's last gap.
func (g *generator) nextTemplate() int {
	if len(g.round) == 0 {
		recent := map[int]bool{}
		for _, t := range g.last {
			recent[t] = true
		}
		var head, tail []int
		for _, t := range g.rng.Perm(len(g.pop.members)) {
			if len(head) < g.gap && !recent[t] {
				head = append(head, t)
			} else {
				tail = append(tail, t)
			}
		}
		g.round = append(head, tail...)
		g.last = append([]int(nil), g.round[max(0, len(g.round)-g.gap):]...)
	}
	t := g.round[0]
	g.round = g.round[1:]
	return t
}

func (g *generator) next() op {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.seq++
	o := op{id: g.seq}
	switch g.w.name {
	case "publish-durable":
		o.kind = opPublish
		if o.id == 1 {
			// The first publish stores the repository's base image, and
			// assembled bytes depend on which image that was: publish the
			// one the references were taken against.
			o.tpl = 0
		} else {
			o.tpl = g.nextTemplate()
		}
	case "retrieve-cold":
		o.kind, o.tpl = opRetrieve, g.nextTemplate()
	default:
		write := g.rng.Float64() < mixWrite
		switch {
		case write && g.removeNext && len(g.added) > 0 && g.added[0].acked:
			o.kind, o.name, o.tpl = opRemove, g.added[0].name, g.added[0].tpl
			g.added = g.added[1:]
			g.removeNext = false
			return o
		case write && !g.removeNext:
			o.kind, o.tpl = opPublish, g.nextTemplate()
			g.removeNext = true
		default:
			// A remove whose name is still being published waits for
			// the next write draw.
			o.kind, o.tpl = opRetrieve, g.hot[g.zipf.Uint64()]
		}
	}
	o.name = g.pop.members[o.tpl].img.Name
	if o.kind == opPublish {
		o.name = fmt.Sprintf("%s-%s%06d", o.name, g.w.name[:1], g.seq)
		if g.w.remote {
			g.added = append(g.added, &published{name: o.name, tpl: o.tpl})
		}
	}
	return o
}

// done records a completed write.
func (g *generator) done(o op) {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch o.kind {
	case opPublish:
		for _, a := range g.added {
			if a.name == o.name {
				a.acked = true
			}
		}
		g.acked = append(g.acked, published{name: o.name, tpl: o.tpl, acked: true})
		g.liveRaw += g.pop.members[o.tpl].raw
	case opRemove:
		g.liveRaw -= g.pop.members[o.tpl].raw
	}
}

// errWrongBytes aborts a run: a retrieval returned bytes that differ from
// the reference. It is never counted as a slow or failed op.
var errWrongBytes = errors.New("retrieved image differs from its reference")

// phase is one opened repository with its timed traffic.
type phase struct {
	w      workload
	pop    *population
	dir    string
	sys    *core.System
	traced bool
	tm     *timings
	tr     *tracer

	ln     net.Listener
	srv    *http.Server
	served chan error
	cls    [clients]*client.Client
}

// openPhase opens the repository the timed phase serves: an empty one,
// or a copy of the prepared one reopened with the cache on (and, for
// remote workloads, served on a loopback port).
func openPhase(w workload, pop *population, dir string, traced bool) (*phase, error) {
	ph := &phase{w: w, pop: pop, dir: dir, traced: traced, tm: newTimings()}
	if !w.fresh {
		if err := copyDir(pop.prepared, dir); err != nil {
			return nil, fmt.Errorf("copy prepared repository: %w", err)
		}
	}
	sys, dur, err := openSystem(dir, core.Options{CacheBytes: cacheBudget})
	if err != nil {
		return nil, err
	}
	if !w.fresh {
		ph.tm.add("vmirepo.reopen", dur)
	}
	ph.sys = sys
	if !w.remote {
		return ph, nil
	}
	ph.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sys.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	var h http.Handler = server.New(sys)
	if traced {
		h = &handlerTimer{next: h, t: ph.tm}
	}
	ph.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	ph.served = make(chan error, 1)
	go func() { ph.served <- ph.srv.Serve(ph.ln) }()
	for i := range ph.cls {
		ph.cls[i] = client.New(ph.ln.Addr().String(), client.Options{})
	}
	return ph, nil
}

// close stops the server (waiting for it) and closes the system.
func (ph *phase) close() error {
	var errs []error
	if ph.srv != nil {
		for _, c := range ph.cls {
			c.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		errs = append(errs, ph.srv.Shutdown(ctx))
		cancel()
		if err := <-ph.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		ph.srv = nil
	}
	if ph.sys != nil {
		errs = append(errs, ph.sys.Close())
		ph.sys = nil
	}
	return errors.Join(errs...)
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	counts
	wall            time.Duration
	cache0, cache1  core.CacheStats
	calls, physical uint64
	mem0, mem1      runtime.MemStats
	repo            vmirepo.Stats
	storeBytes      int64
	liveRaw         int64
	spans           []span
}

func (r *phaseResult) ops() int64 { return r.attempted - r.failed }

// counts are what the clients tally; each client keeps its own and run
// sums them.
type counts struct {
	lat               [numKinds]durations
	attempted, failed int64
	// publishes, and those that exported packages or stored a base
	publishes, novel         int64
	exported, skipped, bases int64
	retrieves, imports       int64
	publishedRaw             int64
	syncs                    []wire.SyncStats
}

func (c *counts) add(o *counts) {
	for k := range o.lat {
		c.lat[k] = append(c.lat[k], o.lat[k]...)
	}
	c.attempted += o.attempted
	c.failed += o.failed
	c.publishes += o.publishes
	c.novel += o.novel
	c.exported += o.exported
	c.skipped += o.skipped
	c.bases += o.bases
	c.retrieves += o.retrieves
	c.imports += o.imports
	c.publishedRaw += o.publishedRaw
	c.syncs = append(c.syncs, o.syncs...)
}

func syncStats(st vmirepo.SyncStats) wire.SyncStats {
	return wire.SyncStats{
		SegmentBytes: st.Blobs.SegmentBytes, IndexBytes: st.Blobs.IndexBytes,
		MetaBytes: st.MetaBytes, Compacted: st.Compacted, BytesReclaimed: st.Blobs.BytesReclaimed,
	}
}

// run drives the closed loop: each client issues its next op once the
// previous one returned, until d has passed.
func (ph *phase) run(d time.Duration, gen *generator) (*phaseResult, error) {
	// Start every timed phase from a collected heap, whatever setup left.
	runtime.GC()
	res := &phaseResult{}
	res.cache0, _ = ph.sys.CacheStats()
	res.calls, res.physical = ph.sys.Repo().SyncCounters()
	runtime.ReadMemStats(&res.mem0)
	if ph.traced {
		ph.tr = &tracer{}
	}
	var (
		wg    sync.WaitGroup
		fatal atomic.Pointer[error]
		stats [clients]counts
	)
	start := time.Now()
	if ph.tr != nil {
		ph.tr.epoch = start
	}
	deadline := start.Add(d)
	// On an empty repository the first op runs alone (see generator.next).
	first := make(chan struct{})
	if !ph.w.fresh {
		close(first)
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ph.client(c, gen, deadline, first, &stats[c], &fatal); err != nil {
				fatal.CompareAndSwap(nil, &err)
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	if p := fatal.Load(); p != nil {
		return nil, *p
	}

	for i := range stats {
		res.add(&stats[i])
	}
	res.cache1, _ = ph.sys.CacheStats()
	c1, p1 := ph.sys.Repo().SyncCounters()
	res.calls, res.physical = c1-res.calls, p1-res.physical
	runtime.ReadMemStats(&res.mem1)
	res.repo = ph.sys.Repo().Stats()
	gen.mu.Lock()
	res.liveRaw = gen.liveRaw
	gen.mu.Unlock()
	var err error
	if res.storeBytes, err = dirBytes(ph.dir); err != nil {
		return nil, fmt.Errorf("measure repository size: %w", err)
	}
	if ph.tr != nil {
		res.spans = ph.tr.spans
	}
	return res, nil
}

// client is one closed-loop caller. Until first is closed, only op 1 may
// run.
func (ph *phase) client(c int, gen *generator, deadline time.Time, first chan struct{}, st *counts, fatal *atomic.Pointer[error]) error {
	sink := newHashSink(ph.traced)
	ctx := context.Background()
	for fatal.Load() == nil && time.Now().Before(deadline) {
		o := gen.next()
		if o.id != 1 {
			<-first
		}
		var img *vmi.Image
		if o.kind == opPublish {
			img = ph.pop.members[o.tpl].img.Clone()
			img.Name = o.name
		}
		sink.reset()
		st.attempted++
		t0 := time.Now()
		sp := ph.tr.begin(o.id, "op."+kindNames[o.kind], t0)
		var err error
		if ph.w.remote {
			err = ph.remoteOp(ctx, ph.cls[c], o, img, sink, sp, st)
		} else {
			err = ph.localOp(o, img, sink, sp, st)
		}
		end := time.Now()
		sp.end(end)
		if o.id == 1 && ph.w.fresh {
			close(first)
		}
		if err != nil {
			st.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s %s: %v\n", kindNames[o.kind], o.name, err)
			continue
		}
		st.lat[o.kind] = append(st.lat[o.kind], end.Sub(t0))
		switch o.kind {
		case opRetrieve:
			if sink.sum() != ph.pop.members[o.tpl].ref {
				return fmt.Errorf("%s: %w", o.name, errWrongBytes)
			}
		case opPublish:
			st.publishedRaw += ph.pop.members[o.tpl].raw
			gen.done(o)
		case opRemove:
			gen.done(o)
		}
	}
	return nil
}

func (st *counts) notePublish(exported, skipped int, base bool) {
	st.publishes++
	if exported > 0 || base {
		st.novel++
	}
	st.exported += int64(exported)
	st.skipped += int64(skipped)
	if base {
		st.bases++
	}
}

// mark records a seam call's span and layer timing, in traced runs only.
func (ph *phase) mark(sp *opSpans, name string, t0, t1 time.Time) {
	if !ph.traced {
		return
	}
	sp.child(name, t0, t1)
	ph.tm.add(name, t1.Sub(t0))
}

// localOp runs one op against the in-process system.
func (ph *phase) localOp(o op, img *vmi.Image, sink *hashSink, sp *opSpans, st *counts) error {
	switch o.kind {
	case opPublish:
		t0 := ph.now()
		rep, err := ph.sys.Publish(img)
		if err != nil {
			return err
		}
		t1 := ph.now()
		ss, err := ph.sys.Sync()
		if err != nil {
			return err
		}
		t2 := ph.now()
		ph.mark(sp, "core.publish", t0, t1)
		ph.mark(sp, "vmirepo.sync", t1, t2)
		st.notePublish(len(rep.Exported), rep.Skipped, rep.BaseStored)
		st.syncs = append(st.syncs, syncStats(ss))
	case opRetrieve:
		t0 := ph.now()
		_, rep, err := ph.sys.RetrieveTo(sink, o.name)
		if err != nil {
			return err
		}
		t1 := ph.now()
		ph.mark(sp, "core.retrieve.assemble", t0, sink.first)
		ph.mark(sp, "core.retrieve.stream", sink.first, t1)
		st.retrieves++
		st.imports += int64(len(rep.Imported))
	default:
		return fmt.Errorf("op %s not in the in-process workloads", kindNames[o.kind])
	}
	return nil
}

// now is a timestamp for traced runs; untraced runs take none beyond
// each op's own start and end.
func (ph *phase) now() time.Time {
	if ph.traced {
		return time.Now()
	}
	return time.Time{}
}

// remoteOp runs one op through the loopback client.
func (ph *phase) remoteOp(ctx context.Context, cl *client.Client, o op, img *vmi.Image, sink *hashSink, sp *opSpans, st *counts) error {
	switch o.kind {
	case opPublish:
		t0 := ph.now()
		pr, err := cl.Publish(ctx, func(w io.Writer) error { return wire.WriteImage(w, img) })
		if err != nil {
			return err
		}
		t1 := ph.now()
		ph.mark(sp, "client.publish", t0, t1)
		st.notePublish(len(pr.Exported), pr.Skipped, pr.BaseStored)
		return ph.remoteSync(ctx, cl, sp, st)
	case opRetrieve:
		t0 := ph.now()
		_, rr, err := cl.Retrieve(ctx, o.name, sink)
		if err != nil {
			return err
		}
		ph.mark(sp, "client.retrieve", t0, ph.now())
		st.retrieves++
		st.imports += int64(len(rr.Imported))
	case opRemove:
		t0 := ph.now()
		if err := cl.Remove(ctx, o.name); err != nil {
			return err
		}
		ph.mark(sp, "client.remove", t0, ph.now())
		return ph.remoteSync(ctx, cl, sp, st)
	}
	return nil
}

func (ph *phase) remoteSync(ctx context.Context, cl *client.Client, sp *opSpans, st *counts) error {
	t0 := ph.now()
	ss, err := cl.Sync(ctx)
	if err != nil {
		return err
	}
	ph.mark(sp, "client.sync", t0, ph.now())
	st.syncs = append(st.syncs, *ss)
	return nil
}

// checkDurable is publish-durable's closing check: close the system,
// reopen the directory, and require every acknowledged name to be
// present, with a sample retrieved byte-identically to its reference —
// each template's last acknowledged name plus the last ones overall,
// where a lost WAL tail would show first.
func (ph *phase) checkDurable(gen *generator) error {
	if err := ph.close(); err != nil {
		return fmt.Errorf("close before reopen: %w", err)
	}
	sys, dur, err := openSystem(ph.dir, core.Options{})
	if err != nil {
		return err
	}
	ph.tm.add("vmirepo.reopen", dur)
	ph.sys = sys
	present := map[string]bool{}
	for _, n := range sys.Repo().VMIs() {
		present[n] = true
	}
	acked := gen.acked
	if len(present) != len(acked) {
		return fmt.Errorf("durability: %d names after reopen, %d acknowledged", len(present), len(acked))
	}
	lastOf := map[int]published{}
	for _, a := range acked {
		if !present[a.name] {
			return fmt.Errorf("durability: acknowledged %s missing after reopen", a.name)
		}
		lastOf[a.tpl] = a
	}
	sample := map[string]published{}
	for _, a := range lastOf {
		sample[a.name] = a
	}
	for i := max(0, len(acked)-durableTail); i < len(acked); i++ {
		sample[acked[i].name] = acked[i]
	}
	names := make([]published, 0, len(sample))
	for _, a := range sample {
		names = append(names, a)
	}
	sort.Slice(names, func(i, j int) bool { return names[i].name < names[j].name })
	return parallel(len(names), func(i int) error {
		a := names[i]
		sink := newHashSink(true)
		if _, err := timedRetrieve(sys, a.name, sink, ph.tm); err != nil {
			return fmt.Errorf("durability: retrieve %s after reopen: %w", a.name, err)
		}
		if sink.sum() != ph.pop.members[a.tpl].ref {
			return fmt.Errorf("durability: %s after reopen: %w", a.name, errWrongBytes)
		}
		return nil
	})
}

// durableTail is how many of the last acknowledged publishes the
// durability check retrieves besides each template's last one.
const durableTail = 8
