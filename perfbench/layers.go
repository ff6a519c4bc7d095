package main

import (
	"fmt"
	"path/filepath"

	"codecomp"
)

// readRoutes are the codecompd routes the workloads read through.
var readRoutes = []string{"block", "range", "bytes"}

// perLayer runs the traced window, the in-process replay and, for a
// workload with a router probe, a routed window, and sets every
// per-layer metric. win is the untraced window and d its scrape
// difference.
func (r *run) perLayer(res *result, st *stack, ops []op, win *window, e2e e2eFigures, d scrapeDelta) error {
	reads := float64(win.stats.reads)
	if reads == 0 {
		return fmt.Errorf("no successful reads in the window")
	}
	per := func(v float64) float64 { return v / reads }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// HTTP: the handler's own latency histogram, per route and over all
	// read routes, and what the client saw beyond the handler.
	var hc, hs float64
	for _, route := range readRoutes {
		m := map[string]string{"route": route}
		res.set("codecompd.handler_us."+route, d.meanUs("codecompd_http_request_seconds", m))
		c, s := d.hist("codecompd_http_request_seconds", m)
		hc, hs = hc+c, hs+s
	}
	handler := ratio(hs, hc) * 1e6
	res.set("codecompd.handler_us", handler)
	res.set("codecompd.transport_us", float64(win.stats.readNs)/reads/1e3-handler)

	res.set("overload.rejected", d.counter("overload_admission_rejects_total", nil)+d.counter("overload_brownout_shed_total", nil))

	// Pool: every demand read and every range miss-run is one ticket.
	res.set("romserver.queue_wait_us", d.meanUs("romserver_queue_wait_seconds", nil))
	res.set("romserver.block_load_us", d.meanUs("romserver_block_load_seconds", nil))
	tickets, _ := d.hist("romserver_queue_wait_seconds", nil)
	res.set("romserver.tickets_per_req", per(tickets))
	res.set("romserver.verify_ns_per_block", d.meanUs("romserver_verify_seconds", nil)*1e3)

	// Cache: block reads by their X-Cache header, plus the blocks range
	// reads found cached or had to decode (range reads peek, so they
	// bypass the demand counters, and never prefetch).
	hits := float64(win.stats.hits) + d.counter("romserver_range_cached_blocks_total", nil)
	misses := float64(win.stats.misses) + d.counter("romserver_range_decoded_blocks_total", nil)
	res.set("blockcache.hit_ratio", ratio(hits, hits+misses))
	res.set("blockcache.evictions_per_req", per(d.counter("blockcache_evictions_total", nil)))
	res.set("prefetch.issued_per_miss", ratio(d.counter("romserver_prefetch_issued_total", nil), float64(win.stats.misses)))
	res.set("prefetch.accuracy", ratio(d.counter("blockcache_prefetch_hits_total", nil), d.counter("romserver_prefetch_completed_total", nil)))
	res.set("codec.decoded_per_served_byte", ratio(float64(win.stats.decoded), float64(win.stats.served)))

	// Tiering: the write passes of the window, as the PUT responses
	// reported them, and the server's rollback counter over the run.
	migrated := 0
	for _, p := range win.stats.passes {
		migrated += p.Migrated
	}
	res.set("tiering.migrated_per_pass", ratio(float64(migrated), float64(len(win.stats.passes))))
	res.set("tiering.verify_failures", d.after.total("tiering_verify_failures_total", nil))

	// The same window again, with client spans.
	twin, err := measure(st.target(ops), st.procs, win.next, r.window, true)
	if err != nil {
		return err
	}
	res.count(twin.stats)
	traced := res.endToEnd(twin, "traced")
	res.set("trace_overhead.latency_p50_us", traced.p50-e2e.p50)
	res.set("trace_overhead.latency_p90_us", traced.p90-e2e.p90)
	res.set("trace_overhead.cpu_us_per_req", traced.cpu-e2e.cpu)
	res.set("trace_overhead.throughput_pct", ratio(e2e.rps-traced.rps, e2e.rps)*100)

	// In process: the traced window's operations through the public calls.
	ip, err := replayInProcess(r.w, st.imgs, ops, win.next, twin.next, r.window)
	if err != nil {
		return err
	}
	hl, il := &twin.stats.spans, &ip.spans
	ipReads := float64(il.count[spBlockContext] + il.count[spReadAt] + il.count[spRangeView])
	usPerRead := func(ns int64) float64 { return ratio(float64(ns), ipReads) / 1e3 }
	romSelf := il.sum(spBlockContext, spReadAt, spRangeView, spWriteTo)
	codecSelf := il.sum(spAppendBlock, spAppendPrefix)
	call := usPerRead(romSelf + codecSelf + il.self[spCRC])
	res.set("self_us.http", hl.meanUs(spHTTPRoundtrip)-call)
	res.set("self_us.romserver", usPerRead(romSelf))
	res.set("self_us.codec", usPerRead(codecSelf))
	res.set("self_us.integrity", usPerRead(il.self[spCRC]))
	res.set("self_us.oracle", hl.meanUs(spVerify))
	res.set("tiering.pass_ms", il.meanUs(spRecompress)/1e3)
	res.note("in-process replay: %d ops (%d reads) of the traced window's %d", ip.ops, int64(ipReads), twin.next-win.next)

	for _, f := range []string{"samc", "raw", "huffman", "rans"} {
		t := formatTag(f)
		res.set("codec.decode_ns_per_block."+f, ratio(float64(ip.decodeNs[t]), float64(ip.decodes[t])))
		res.note("codec %s: %d full-block decodes", f, ip.decodes[t])
	}
	for _, f := range []string{codecomp.TierRaw, codecomp.TierHuffman, codecomp.TierRANS} {
		t := formatTag(f)
		nsPerByte := ratio(float64(ip.decodeNs[t]), float64(ip.decodeBytes[t]))
		res.set("tiering.cost_model_ratio."+f, nsPerByte/codecomp.DefaultTierCostModel[f])
	}

	lto, err := loadTimeoutOverhead(r.w, st.imgs[0])
	if err != nil {
		return err
	}
	res.set("romserver.load_timeout_overhead_us", lto)

	// Cluster: the same operations through codecomprouter fronting two
	// codecompd nodes with replication 2, on a stack of their own.
	hop, hedges := 0.0, 0.0
	if r.w.routerProbe {
		rst, err := r.setUp(ops, true)
		if err != nil {
			return fmt.Errorf("routed set-up: %w", err)
		}
		defer rst.stop()
		rb, err := scrapeAll(rst.procs)
		if err != nil {
			return err
		}
		rwin, err := measure(rst.target(ops), rst.procs, rst.next, r.window, false)
		if err != nil {
			return err
		}
		ra, err := scrapeAll(rst.procs)
		if err != nil {
			return err
		}
		res.count(rwin.stats)
		hop = res.endToEnd(rwin, "routed").p50 - e2e.p50
		hedges = ratio(scrapeDelta{rb, ra}.counter("router_hedges_total", nil), float64(rwin.stats.reads))
		if err := res.checkServers(rst.procs); err != nil {
			return err
		}
	}
	res.set("router.hop_us", hop)
	res.set("router.hedges_per_req", hedges)

	base := filepath.Join(r.out, fmt.Sprintf("spans-%s-seed%d", r.w.name, r.seed))
	if err := writeSpans(base+"-http.tsv", hl.kept); err != nil {
		return err
	}
	if err := writeSpans(base+"-inproc.tsv", il.kept); err != nil {
		return err
	}
	res.note("spans of the first %d operations per client written to %s-{http,inproc}.tsv", keepOps, base)
	return nil
}
