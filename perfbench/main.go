// Command perfbench is the repository benchmark. It runs one named
// workload against the real program on the durable disk store, checks
// every retrieved byte against a reference digest, and prints one JSON
// result line with the workload's end-to-end metrics (or, with -trace 1,
// its per-layer metrics from a traced run).
//
//	go run . -workload retrieve-cold -seed 1 -seconds 10 -trace 0
//	go run . -selftest
//
// See README.md for the workloads, the metrics and how each is measured.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// clients is the number of closed-loop client goroutines.
	clients = 2
	// cacheBudget is the retrieval cache size of every timed phase: the
	// population's assembled bytes are over 4x this budget.
	cacheBudget = 10 << 20
	// setupRounds is how many times an untraced run sets up; setup_s is
	// the median, and the last round's state is the one measured.
	setupRounds = 2
	flushPolicy = "Sync after every acknowledged publish or remove"
)

type config struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	rounds   int
	workDir  string
	// corruptRef flips one reference digest, so the run must fail.
	corruptRef bool
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: publish-durable, retrieve-cold or remote-mixed")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		workDir  = flag.String("workdir", ".bench_build/perfbench", "scratch and trace directory")
		selftest = flag.Bool("selftest", false, "run the benchmark's short self-test")
	)
	flag.Parse()
	if *selftest {
		if err := selfTest(*workDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: selftest:", err)
			os.Exit(1)
		}
		fmt.Println("perfbench: selftest passed")
		return
	}
	wl, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg := config{workload: wl, seed: *seed, seconds: *seconds, trace: *trace == 1, rounds: setupRounds, workDir: *workDir}
	if cfg.trace {
		cfg.rounds = 1
	}
	out, err := runWorkload(cfg, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := out.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var s []string
	for _, w := range workloads {
		s = append(s, w.name)
	}
	return strings.Join(s, ", ")
}

// output is everything one run prints.
type output struct {
	env     map[string]any
	detail  map[string]any
	result  result
	metrics []metricDef
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the environment, the detail and, last, the result line.
func (o *output) print(wr io.Writer) error {
	for _, v := range []any{map[string]any{"env": o.env}, map[string]any{"detail": o.detail}, o.result} {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(wr, "%s\n", b); err != nil {
			return err
		}
	}
	return nil
}

// runWorkload sets up (cfg.rounds times, unless pop is given), runs the
// timed phase and computes the metrics. In a traced run the timed phase
// runs twice on identical starting state: untraced, for the tracing
// overhead, then traced.
func runWorkload(cfg config, pop *population) (*output, error) {
	base := filepath.Join(cfg.workDir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(base)
	setupTm := newTimings()
	var (
		ph     *phase
		setups []float64
		err    error
	)
	for r := 0; r < cfg.rounds; r++ {
		round := filepath.Join(base, fmt.Sprintf("round%d", r))
		t0 := time.Now()
		if pop == nil || r > 0 {
			if pop, err = buildPopulation(filepath.Join(round, "prepared"), setupTm); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
		}
		if ph, err = openPhase(cfg.workload, pop, filepath.Join(round, "phase"), false); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if r < cfg.rounds-1 {
			if err := ph.close(); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			os.RemoveAll(round)
		}
	}
	defer ph.close()
	if cfg.corruptRef {
		pop = corruptFirstRef(cfg, pop)
		ph.pop = pop
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	res, err := runPhase(cfg, ph, d)
	if err != nil {
		return nil, err
	}
	if err := ph.close(); err != nil {
		return nil, fmt.Errorf("close timed repository: %w", err)
	}
	out := &output{env: runEnv(cfg), detail: details(cfg, pop, res)}
	if !cfg.trace {
		out.metrics = endToEnd
		out.result = finish(res, endToEndValues(cfg.workload, setups, res), endToEnd)
		return out, nil
	}
	untracedOpsPerS := float64(res.ops()) / res.wall.Seconds()
	tph, err := openPhase(cfg.workload, pop, filepath.Join(base, "traced"), true)
	if err != nil {
		return nil, err
	}
	defer tph.close()
	tres, err := runPhase(cfg, tph, d)
	if err != nil {
		return nil, err
	}
	if err := tph.close(); err != nil {
		return nil, fmt.Errorf("close traced repository: %w", err)
	}
	vals := perLayerValues(setupTm, tph, tres, untracedOpsPerS)
	self := map[string]float64{}
	for name, v := range selfTimes(tres.spans) {
		self[name] = v / float64(max(tres.ops(), 1))
	}
	out.detail = details(cfg, pop, tres)
	out.detail["self_ms_per_op"] = self
	out.detail["untraced_ops_per_s"] = untracedOpsPerS
	path, err := writeTrace(cfg, tph, tres, self)
	if err != nil {
		return nil, err
	}
	out.detail["trace_file"] = path
	out.metrics = perLayer
	out.result = finish(tres, vals, perLayer)
	return out, nil
}

// runPhase runs the timed phase and, for publish-durable, the closing
// durability check.
func runPhase(cfg config, ph *phase, d time.Duration) (*phaseResult, error) {
	gen := newGenerator(cfg.workload, ph.pop, cfg.seed)
	res, err := ph.run(d, gen)
	if err != nil {
		return nil, err
	}
	if cfg.workload.fresh {
		if err := ph.checkDurable(gen); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// corruptFirstRef returns a copy of pop whose reference digest for the
// first op's template is wrong.
func corruptFirstRef(cfg config, pop *population) *population {
	cp := *pop
	cp.members = append([]member(nil), pop.members...)
	o := newGenerator(cfg.workload, pop, cfg.seed).next()
	cp.members[o.tpl].ref[0] ^= 0xff
	return &cp
}

func finish(res *phaseResult, vals map[string]float64, defs []metricDef) result {
	r := result{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		r.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	return r
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// runEnv records what makes two runs comparable.
func runEnv(cfg config) map[string]any {
	return map[string]any{
		"workload":     cfg.workload.name,
		"seed":         cfg.seed,
		"seconds":      cfg.seconds,
		"trace":        cfg.trace,
		"go":           runtime.Version(),
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"commit":       sourceDigest(),
		"backend":      "disk (diskstore blob segments + metawal)",
		"cache_bytes":  cacheBudget,
		"flush_policy": flushPolicy,
		"clients":      clients,
		"setup_rounds": cfg.rounds,
		"parallelism":  "daemon default (sequential within an op)",
	}
}

// sourceDigest identifies the code under test: the SHA-256 of every Go
// source and go.mod under the working directory, hidden directories
// excluded (the checkout a benchmark runs in need not be a git tree).
func sourceDigest() string {
	h := sha256.New()
	var files []string
	err := filepath.Walk(".", func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() && path != "." && strings.HasPrefix(info.Name(), ".") {
			return filepath.SkipDir
		}
		if !info.IsDir() && (strings.HasSuffix(path, ".go") || info.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// details are the measured workload properties and per-op figures that
// are not gated metrics.
func details(cfg config, pop *population, r *phaseResult) map[string]any {
	ops := map[string]any{}
	for k, d := range r.lat {
		if len(d) == 0 {
			continue
		}
		o := map[string]any{"count": len(d), "p50_ms": d.pct(0.5)}
		if len(d) >= 100 {
			o["p90_ms"] = d.pct(0.9)
		}
		ops[kindNames[k]] = o
	}
	var working int64
	for _, i := range workingSet(cfg.workload, pop) {
		working += pop.members[i].assembled
	}
	hits := r.cache1.Hits - r.cache0.Hits
	misses := r.cache1.Misses - r.cache0.Misses
	return map[string]any{
		"ops":                    ops,
		"fail_ratio":             ratio(float64(r.failed), float64(r.attempted)),
		"novel_publish_share":    ratio(float64(r.novel), float64(r.publishes)),
		"working_set_bytes":      working,
		"working_set_per_budget": float64(working) / cacheBudget,
		"hit_ratio":              ratio(float64(hits), float64(hits+misses)),
		"vmis_live":              r.repo.VMIs,
	}
}

// workingSet is the population the workload retrieves.
func workingSet(wl workload, pop *population) []int {
	switch {
	case wl.remote:
		return hotSet(pop)
	case wl.fresh:
		return nil
	}
	idx := make([]int, len(pop.members))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeTrace writes the traced phase's spans and handler timings.
func writeTrace(cfg config, ph *phase, r *phaseResult, self map[string]float64) (string, error) {
	dir := filepath.Join(cfg.workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	routes := map[string]any{}
	for _, rt := range []string{"retrieve", "publish", "remove", "sync"} {
		d := ph.tm.get("server." + rt)
		var total time.Duration
		for _, x := range d {
			total += x
		}
		routes[rt] = map[string]any{"count": len(d), "total_ms": ms(total), "p50_ms": d.pct(0.5)}
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload.name, cfg.seed))
	b, err := json.Marshal(map[string]any{
		"workload": cfg.workload.name, "seed": cfg.seed,
		"spans": r.spans, "server_routes": routes, "self_ms_per_op": self,
	})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
