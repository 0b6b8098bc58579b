package main

// metricDef names one reported metric. The lists below are the ones
// BENCHMARK.json declares; the self-test keeps the two in step.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression.
	bound float64
}

// endToEnd are what a user of the repository sees, measured with tracing
// off over the timed phase. The latencies cover the workload's primary
// op type — publish on publish-durable, retrieve on the others — since a
// percentile over a mix of fast and slow op types jumps with the mix: a
// publish counts until it and its Sync returned, a retrieve until its
// last byte reached the caller's sink. Every op counts in ops_per_s.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"store_bytes_per_image_byte", "ratio", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer are measured in a traced run, from outside each layer.
var perLayer = []metricDef{
	{name: "builder.build_ms", unit: "ms", better: "lower"},
	{name: "core.publish_ms", unit: "ms", better: "lower"},
	{name: "core.publish.dedup_ratio", unit: "ratio", better: "higher"},
	{name: "core.publish.bases_stored", unit: "count", better: "lower"},
	{name: "core.retrieve.assemble_ms", unit: "ms", better: "lower"},
	{name: "core.retrieve.stream_ms", unit: "ms", better: "lower"},
	{name: "core.retrieve.pkgs_imported", unit: "count", better: "lower"},
	{name: "retrievecache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "retrievecache.evictions", unit: "count", better: "lower"},
	{name: "retrievecache.coalesced", unit: "count", better: "higher"},
	{name: "retrievecache.stripe_invalidations", unit: "count", better: "lower"},
	{name: "vmirepo.sync_ms", unit: "ms", better: "lower"},
	{name: "vmirepo.sync_coalesce", unit: "ratio", better: "lower"},
	{name: "vmirepo.reopen_ms", unit: "ms", better: "lower"},
	{name: "metawal.bytes_per_sync", unit: "bytes", better: "lower"},
	{name: "metawal.compactions", unit: "count", better: "lower"},
	{name: "blobstore.segment_bytes_per_image_byte", unit: "ratio", better: "lower"},
	{name: "blobstore.index_bytes_per_sync", unit: "bytes", better: "lower"},
	{name: "blobstore.disk_per_live", unit: "ratio", better: "lower"},
	{name: "blobstore.bytes_reclaimed", unit: "bytes", better: "higher"},
	{name: "server.retrieve_ms", unit: "ms", better: "lower"},
	{name: "server.publish_ms", unit: "ms", better: "lower"},
	{name: "server.remove_ms", unit: "ms", better: "lower"},
	{name: "server.sync_ms", unit: "ms", better: "lower"},
	{name: "wire.retrieve_overhead_ms", unit: "ms", better: "lower"},
	{name: "wire.publish_overhead_ms", unit: "ms", better: "lower"},
	{name: "runtime.alloc_mb_per_op", unit: "MB", better: "lower"},
	{name: "runtime.gc_per_op", unit: "count", better: "lower"},
	{name: "trace.ops_per_s_ratio", unit: "ratio", better: "higher"},
}

func endToEndValues(wl workload, setups []float64, r *phaseResult) map[string]float64 {
	lat := r.lat[wl.primary]
	return map[string]float64{
		"setup_s":                    median(setups),
		"op_p50_ms":                  lat.pct(0.5),
		"op_p90_ms":                  lat.pct(0.9),
		"ops_per_s":                  float64(r.ops()) / r.wall.Seconds(),
		"store_bytes_per_image_byte": ratio(float64(r.storeBytes), float64(r.liveRaw)),
		"peak_rss_mb":                peakRSSMB(),
	}
}

// perLayerValues computes the per-layer metrics of a traced phase. A
// layer timing the timed phase never reached (a retrieve split on a
// publish-only workload, say) falls back to the same call made in setup
// or the closing check, so each is a measured number; server and wire
// timings read 0 on the in-process workloads, which never cross them.
// Counts and ratios cover the timed phase alone.
func perLayerValues(setup *timings, ph *phase, r *phaseResult, untracedOpsPerS float64) map[string]float64 {
	p50 := func(name string) float64 {
		if d := ph.tm.get(name); len(d) > 0 {
			return d.pct(0.5)
		}
		return setup.get(name).pct(0.5)
	}
	overhead := func(route string) float64 {
		c, s := ph.tm.get("client."+route), ph.tm.get("server."+route)
		if len(c) == 0 || len(s) == 0 {
			return 0
		}
		return c.pct(0.5) - s.pct(0.5)
	}
	hits := float64(r.cache1.Hits - r.cache0.Hits)
	misses := float64(r.cache1.Misses - r.cache0.Misses)
	var inval int64
	for i := range r.cache1.StripeInvalidations {
		inval += r.cache1.StripeInvalidations[i] - r.cache0.StripeInvalidations[i]
	}
	var metaBytes, indexBytes, segBytes, reclaimed, compactions int64
	for _, s := range r.syncs {
		metaBytes += s.MetaBytes
		indexBytes += s.IndexBytes
		segBytes += s.SegmentBytes
		reclaimed += s.BytesReclaimed
		if s.Compacted {
			compactions++
		}
	}
	nsync := float64(len(r.syncs))
	ops := float64(max(r.ops(), 1))
	return map[string]float64{
		"builder.build_ms":                       setup.get("builder.build").pct(0.5),
		"core.publish_ms":                        p50("core.publish"),
		"core.publish.dedup_ratio":               ratio(float64(r.skipped), float64(r.exported+r.skipped)),
		"core.publish.bases_stored":              float64(r.bases),
		"core.retrieve.assemble_ms":              p50("core.retrieve.assemble"),
		"core.retrieve.stream_ms":                p50("core.retrieve.stream"),
		"core.retrieve.pkgs_imported":            ratio(float64(r.imports), float64(r.retrieves)),
		"retrievecache.hit_ratio":                ratio(hits, hits+misses),
		"retrievecache.evictions":                float64(r.cache1.Evictions - r.cache0.Evictions),
		"retrievecache.coalesced":                float64(r.cache1.Coalesced - r.cache0.Coalesced),
		"retrievecache.stripe_invalidations":     float64(inval),
		"vmirepo.sync_ms":                        p50("vmirepo.sync"),
		"vmirepo.sync_coalesce":                  ratio(float64(r.physical), float64(r.calls)),
		"vmirepo.reopen_ms":                      p50("vmirepo.reopen"),
		"metawal.bytes_per_sync":                 ratio(float64(metaBytes), nsync),
		"metawal.compactions":                    float64(compactions),
		"blobstore.segment_bytes_per_image_byte": ratio(float64(segBytes), float64(r.publishedRaw)),
		"blobstore.index_bytes_per_sync":         ratio(float64(indexBytes), nsync),
		"blobstore.disk_per_live":                ratio(float64(r.repo.BlobDiskBytes), float64(r.repo.BlobBytes)),
		"blobstore.bytes_reclaimed":              float64(reclaimed),
		"server.retrieve_ms":                     ph.tm.get("server.retrieve").pct(0.5),
		"server.publish_ms":                      ph.tm.get("server.publish").pct(0.5),
		"server.remove_ms":                       ph.tm.get("server.remove").pct(0.5),
		"server.sync_ms":                         ph.tm.get("server.sync").pct(0.5),
		"wire.retrieve_overhead_ms":              overhead("retrieve"),
		"wire.publish_overhead_ms":               overhead("publish"),
		"runtime.alloc_mb_per_op":                float64(r.mem1.TotalAlloc-r.mem0.TotalAlloc) / (1 << 20) / ops,
		"runtime.gc_per_op":                      float64(r.mem1.NumGC-r.mem0.NumGC) / ops,
		"trace.ops_per_s_ratio":                  ratio(float64(r.ops())/r.wall.Seconds(), untracedOpsPerS),
	}
}
