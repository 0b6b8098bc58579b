// Command expelctl drives an Expelliarmus session from the command line:
// it builds synthetic evaluation images, publishes them into a repository,
// retrieves or assembles VMIs and reports repository statistics — the
// Fig. 2 workflow end to end.
//
// The repository is in-process by default. With -server ADDR every
// operation instead runs against a live expelserverd: images are built
// locally, streamed up as wire envelopes, and retrievals stream back as
// verified byte streams. Repository-side options (-no-dedup,
// -no-base-selection, -load) belong to whoever owns the repository and
// are rejected in remote mode.
//
// Usage:
//
//	expelctl -publish Mini,Redis,Base [-retrieve Redis] [-assemble combo=redis-server+apache2] [-v]
//	expelctl -server 127.0.0.1:9747 -publish Redis -retrieve Redis
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"expelliarmus"
	"expelliarmus/internal/catalog"
)

// gb converts a store-scaled byte count to paper-scale gigabytes, the
// same presentation RepoStats uses for its GB fields.
func gb(b int64) float64 { return float64(catalog.Paper(b)) / 1e9 }

func main() {
	publish := flag.String("publish", "", "comma-separated template names to build and publish, or 'all'")
	retrieve := flag.String("retrieve", "", "VMI name to retrieve after publishing")
	assemble := flag.String("assemble", "", "custom assembly as name=pkg1+pkg2+...")
	noDedup := flag.Bool("no-dedup", false, "disable semantic dedup (the paper's 'Semantic' variant)")
	noBaseSel := flag.Bool("no-base-selection", false, "disable base image selection (Algorithm 2)")
	remove := flag.String("remove", "", "VMI name to remove (with garbage collection)")
	tenant := flag.String("tenant", "", "tenant account to charge published bytes to (visible in stats, enforced against server quotas)")
	ttl := flag.Duration("ttl", 0, "publish with this time-to-live: images expire (become removable by the expiry sweep) this long from now")
	expiresAt := flag.String("expires-at", "", "publish with an absolute expiry timestamp (RFC 3339, e.g. 2026-08-08T12:00:00Z); mutually exclusive with -ttl")
	vacuum := flag.Bool("vacuum", false, "reclaim dangling repository state (unreferenced packages, orphaned archives, blob orphans) after the other operations")
	syncFlag := flag.Bool("sync", false, "sync the repository after the other operations, making published state durable (and visible to follower daemons)")
	compact := flag.Bool("compact", false, "force compaction (blob segments + metadata WAL) after the other operations and report what was reclaimed")
	saveFile := flag.String("save", "", "write the repository snapshot to this file when done")
	loadFile := flag.String("load", "", "restore the repository from this snapshot file first")
	dotFile := flag.String("dot", "", "write the master graph(s) in Graphviz DOT format to this file")
	serverAddr := flag.String("server", "", "run against a live expelserverd at this address instead of in-process")
	verbose := flag.Bool("v", false, "verbose per-operation phase breakdowns")
	flag.Parse()

	expiry, err := resolveExpiry(*ttl, *expiresAt)
	if err != nil {
		fail(err)
	}
	pubOpts := expelliarmus.PublishOptions{Tenant: *tenant, ExpiresAt: expiry}

	if *serverAddr != "" {
		runRemote(remoteArgs{
			addr:      *serverAddr,
			publish:   *publish,
			retrieve:  *retrieve,
			assemble:  *assemble,
			remove:    *remove,
			sync:      *syncFlag,
			compact:   *compact,
			vacuum:    *vacuum,
			saveFile:  *saveFile,
			loadFile:  *loadFile,
			dotFile:   *dotFile,
			noDedup:   *noDedup,
			noBaseSel: *noBaseSel,
			verbose:   *verbose,
			pubOpts:   pubOpts,
		})
		return
	}

	if *publish == "" && *loadFile == "" {
		fmt.Fprintln(os.Stderr, "expelctl: -publish is required; templates:")
		fmt.Fprintf(os.Stderr, "  %s\n", strings.Join(expelliarmus.Templates(), ", "))
		os.Exit(2)
	}

	opts := expelliarmus.Options{
		NoSemanticDedup: *noDedup,
		NoBaseSelection: *noBaseSel,
	}
	var sys *expelliarmus.System
	if *loadFile != "" {
		snap, err := os.ReadFile(*loadFile)
		if err != nil {
			fail(err)
		}
		sys, err = expelliarmus.Restore(snap, opts)
		if err != nil {
			fail(err)
		}
		fmt.Printf("restored repository from %s\n", *loadFile)
	} else {
		sys = expelliarmus.NewWithOptions(opts)
	}

	var names []string
	switch {
	case *publish == "all":
		names = expelliarmus.Templates()
	case *publish != "":
		names = strings.Split(*publish, ",")
	}
	for _, name := range names {
		name = strings.TrimSpace(name)
		img, err := sys.BuildImage(name)
		if err != nil {
			fail(err)
		}
		st, err := img.Stats()
		if err != nil {
			fail(err)
		}
		pub, err := sys.PublishWith(img, pubOpts)
		if err != nil {
			fail(err)
		}
		fmt.Printf("published %-14s mounted %.3f GB, %6d files, SimG %.2f, %5.1fs, exported %d pkgs (skipped %d)\n",
			name, st.MountedGB, st.Files, pub.Similarity, pub.Seconds, len(pub.Exported), pub.Skipped)
		if *verbose {
			printPhases(pub.Phases)
		}
	}

	printRepoStats(sys, "repository")

	if *retrieve != "" {
		img, ret, err := sys.Retrieve(*retrieve)
		if err != nil {
			fail(err)
		}
		fmt.Printf("retrieved %s in %.1fs (%d packages imported)\n",
			img.Name(), ret.Seconds, len(ret.Imported))
		if *verbose {
			printPhases(ret.Phases)
		}
	}

	if *remove != "" {
		if err := sys.Remove(*remove); err != nil {
			fail(err)
		}
		fmt.Printf("removed %s\n", *remove)
		printRepoStats(sys, "repository now")
	}

	if *assemble != "" {
		name, spec, ok := strings.Cut(*assemble, "=")
		if !ok {
			fail(fmt.Errorf("bad -assemble %q, want name=pkg1+pkg2", *assemble))
		}
		primaries := strings.Split(spec, "+")
		img, ret, err := sys.Assemble(name, primaries, "")
		if err != nil {
			fail(err)
		}
		fmt.Printf("assembled %s with %v in %.1fs (%d packages imported)\n",
			img.Name(), primaries, ret.Seconds, len(ret.Imported))
		if *verbose {
			printPhases(ret.Phases)
		}
	}

	if *syncFlag {
		if !sys.Persistent() {
			fmt.Println("sync: repository is memory-backed, nothing durable to sync (use -server against a disk-backed daemon)")
		} else {
			st, err := sys.Sync()
			if err != nil {
				fail(err)
			}
			fmt.Printf("synced: %d metadata ops committed (%d metadata bytes, %d segment bytes)\n", st.MetaOps, st.MetaBytes, st.SegmentBytes)
		}
	}

	if *compact {
		if !sys.Persistent() {
			// The local CLI runs memory-backed (Save/Load snapshots), where
			// released blobs free immediately — nothing durable to compact.
			fmt.Println("compact: repository is memory-backed, nothing on disk to reclaim (use -server against a disk-backed daemon)")
		} else {
			cst, err := sys.Compact()
			if err != nil {
				fail(err)
			}
			fmt.Printf("compacted: %d blob segment(s) rewritten, %.3f GB reclaimed, %.3f GB dead remaining\n",
				cst.SegmentsCompacted, gb(cst.BytesReclaimed), gb(cst.DeadBytes))
			printRepoStats(sys, "repository now")
		}
	}

	if *vacuum {
		vst, err := sys.Vacuum()
		if err != nil {
			fail(err)
		}
		fmt.Printf("vacuumed: %d package(s), %d user-data archive(s), %d lifecycle record(s), %d orphan blob(s) removed, %.3f GB reclaimed\n",
			vst.PackagesRemoved, vst.UserDataRemoved, vst.MetaRemoved, vst.BlobsReleased, gb(vst.BytesReclaimed))
		printRepoStats(sys, "repository now")
	}

	if *dotFile != "" {
		dot, err := sys.MasterGraphDOT()
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*dotFile, []byte(dot), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("master graphs written to %s\n", *dotFile)
	}

	saveIfRequested(sys, *saveFile)
}

// printRepoStats reports the catalog plus its storage footprint, keeping
// the live (deduplicated) size and the physical on-disk size apart: a
// disk-backed repository can hold garbage awaiting compaction, and
// conflating the two is exactly how dead bytes go unnoticed.
func printRepoStats(sys *expelliarmus.System, label string) {
	rs := sys.RepoStats()
	line := fmt.Sprintf("%s: %d VMIs, %d base image(s), %d packages, %.2f GB live",
		label, rs.VMIs, rs.BaseImages, rs.Packages, rs.TotalGB)
	if rs.DiskGB > 0 {
		line += fmt.Sprintf(" (%.2f GB on disk, %.2f GB dead)", rs.DiskGB, rs.DeadGB)
	}
	fmt.Println(line)
	printTenants(sys.TenantStats())
}

// printTenants lists per-tenant charged bytes, sorted by name.
func printTenants(ts map[string]int64) {
	if len(ts) == 0 {
		return
	}
	tenants := make([]string, 0, len(ts))
	for t := range ts {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		fmt.Printf("    tenant %-14s %.3f GB charged\n", t, gb(ts[t]))
	}
}

// resolveExpiry turns the mutually-exclusive -ttl / -expires-at flags
// into one Unix-seconds timestamp (zero: never expires).
func resolveExpiry(ttl time.Duration, expiresAt string) (int64, error) {
	switch {
	case ttl != 0 && expiresAt != "":
		return 0, fmt.Errorf("-ttl and -expires-at are mutually exclusive")
	case ttl < 0:
		return 0, fmt.Errorf("-ttl must be positive, got %v", ttl)
	case ttl > 0:
		return time.Now().Add(ttl).Unix(), nil
	case expiresAt != "":
		t, err := time.Parse(time.RFC3339, expiresAt)
		if err != nil {
			return 0, fmt.Errorf("bad -expires-at: %w", err)
		}
		return t.Unix(), nil
	}
	return 0, nil
}

func saveIfRequested(sys *expelliarmus.System, file string) {
	if file == "" {
		return
	}
	snap, err := sys.Save()
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(file, snap, 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("repository snapshot written to %s\n", file)
}

func printPhases(phases map[string]float64) {
	keys := make([]string, 0, len(phases))
	for k := range phases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("    %-12s %6.2fs\n", k, phases[k])
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "expelctl: %v\n", err)
	os.Exit(1)
}
