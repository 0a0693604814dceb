package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"drqos/internal/channel"
	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/routing"
	"drqos/internal/server"
	"drqos/internal/topology"
)

// counters are the program's own tallies, read before and after the
// measured phase.
type counters struct {
	publishes      int64
	fsyncBatches   int64
	batchedAppends int64
	crossAttempts  int64
	crossCommitted int64
	standbySeq     uint64
	laneWait       map[string]float64 // mean queueing delay (ms) by lane
}

func readCounters(st *stack) counters {
	c := counters{laneWait: map[string]float64{}}
	n := map[string]int{}
	for _, srv := range st.servers() {
		v := srv.StatsView()
		c.publishes += v.Epoch.Publishes
		c.fsyncBatches += v.FsyncBatches
		c.batchedAppends += v.BatchedAppends
		for lane, ls := range v.Lanes {
			c.laneWait[lane] += ls.DelayMeanSec * 1000 * float64(ls.DelayCount)
			n[lane] += ls.DelayCount
		}
	}
	for lane := range c.laneWait {
		if n[lane] > 0 {
			c.laneWait[lane] /= float64(n[lane])
		}
	}
	if st.coord != nil {
		c.crossAttempts, c.crossCommitted, _ = st.coord.CrossStats()
	}
	if st.fjnl != nil {
		c.standbySeq = st.fjnl.LastSeq()
	}
	return c
}

// perLayer fills the per-layer metrics of a traced run: span statistics
// from the measured window, counter deltas, and direct timed passes of the
// run's own journal and final state through the manager, the flooding
// router, the epoch export and a standalone journal.
func perLayer(ctx context.Context, res *result, st *stack, m *measured, final finalState) error {
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	ops := float64(m.attempted)
	per := func(x float64) float64 { return x / ops }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	spans := st.tr.window(m.from, m.to)
	byName := map[string][]span{}
	handlerOf := map[uint64]span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		if s.Name == "http.handler" && s.Parent != 0 {
			handlerOf[s.Parent] = s
		}
	}
	durations := func(name string) []float64 {
		var xs []float64
		for _, s := range byName[name] {
			xs = append(xs, s.ms())
		}
		return xs
	}

	// HTTP: handler time, the client's round trip outside it, body bytes.
	var handler, outside []float64
	var in, out float64
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "client.") {
			continue
		}
		h, ok := handlerOf[s.ID]
		if !ok {
			continue
		}
		handler = append(handler, h.ms())
		outside = append(outside, s.ms()-h.ms())
		in += float64(h.In)
		out += float64(h.Out)
	}
	set("http.handler_ms", "ms", median(handler))
	set("http.client_ms", "ms", median(outside))
	set("http.req_bytes_per_op", "B", per(in))
	set("http.resp_bytes_per_op", "B", per(out))

	// Server: epoch publishing, staleness seen by reads, lane waits.
	var ages []float64
	for _, c := range m.clients {
		ages = append(ages, c.epochAges...)
	}
	set("server.epoch_publishes_per_op", "count", per(float64(m.after.publishes-m.before.publishes)))
	set("server.epoch_age_ms", "ms", median(ages))
	set("server.lane_wait_consuming_ms", "ms", m.after.laneWait["consuming"])
	set("server.lane_wait_freeing_ms", "ms", m.after.laneWait["freeing"])

	// Journal counters of the live stack.
	batches := float64(m.after.fsyncBatches - m.before.fsyncBatches)
	set("journal.appends_per_fsync", "count", ratio(float64(m.after.batchedAppends-m.before.batchedAppends), batches))
	set("journal.fsyncs_per_op", "count", per(batches))

	// Replica: the composed WaitReplicated hook and the standby's polls.
	polls := byName["replica.poll"]
	var pollBytes float64
	for _, s := range polls {
		pollBytes += float64(s.Out)
	}
	set("replica.ack_wait_ms", "ms", median(durations("replica.wait")))
	set("replica.polls_per_op", "count", per(float64(len(polls))))
	set("replica.records_per_poll", "count", ratio(float64(m.after.standbySeq-m.before.standbySeq), float64(len(polls))))
	set("replica.stream_bytes_per_op", "B", per(pollBytes))

	// Shard: 2PC phase calls through the Invoke hook.
	attempts := float64(m.after.crossAttempts - m.before.crossAttempts)
	phases := len(byName["shard.prepare"]) + len(byName["shard.commit"]) + len(byName["shard.abort"])
	set("shard.prepare_ms", "ms", median(durations("shard.prepare")))
	set("shard.commit_ms", "ms", median(durations("shard.commit")))
	set("shard.phase_calls_per_cross", "count", ratio(float64(phases), attempts))
	set("shard.commits_per_attempt", "count", ratio(float64(m.after.crossCommitted-m.before.crossCommitted), attempts))

	// Forecast: solves that finished inside the window.
	var solves []float64
	st.tr.mu.Lock()
	for i, t := range st.tr.solveT {
		if t >= m.from && t < m.to {
			solves = append(solves, st.tr.solves[i])
		}
	}
	st.tr.mu.Unlock()
	set("forecast.solve_ms", "ms", median(solves))
	set("forecast.solves_per_s", "1/s", float64(len(solves))/m.elapsed.Seconds())
	modelErr := 0.0
	if st.srv != nil && st.srv.Forecaster() != nil {
		if f := st.srv.Forecaster().Current(); f != nil && final.meanKbps > 0 {
			modelErr = (f.MeanBandwidthKbps - final.meanKbps) / final.meanKbps * 100
			fmt.Fprintf(os.Stderr, "admbench: forecast mean %.1f Kb/s vs measured %.1f Kb/s (%+.1f%%)\n",
				f.MeanBandwidthKbps, final.meanKbps, modelErr)
		}
	}
	set("forecast.model_abs_err_pct", "%", math.Abs(modelErr))

	// Direct passes over every plane's journal tail and final state.
	var p passStats
	for i, pl := range final.planes {
		if pl.rec == nil || pl.rebuilt == nil {
			return fmt.Errorf("plane %d has no replayed state to time", i)
		}
		if err := p.run(ctx, st.tr, pl, filepath.Join(st.dir, fmt.Sprintf("pass-%d", i))); err != nil {
			return err
		}
	}
	set("manager.establish_ms", "ms", median(p.establish))
	set("manager.terminate_ms", "ms", median(p.terminate))
	set("manager.fail_link_ms", "ms", median(p.failLink))
	set("manager.ops_per_s", "ops/s", ratio(p.events, p.managerMs/1000))
	set("manager.allocs_per_establish", "count", mean(p.allocs))
	set("manager.level_changes_per_op", "count", ratio(p.levelChanges, p.events))
	set("manager.direct_chained_per_establish", "count", ratio(p.directChained, float64(len(p.establish))))
	set("routing.flood_ms", "ms", median(p.flood))
	set("routing.candidates_per_flood", "count", mean(p.candidates))
	set("server.epoch_export_ms", "ms", mean(p.export))
	set("server.epoch_export_allocs", "count", p.exportAllocs/float64(len(final.planes)))
	set("server.epoch_export_kb", "KB", p.exportKB/float64(len(final.planes)))
	set("server.snapshot_ms", "ms", median(p.snapshot))
	set("journal.append_durable_ms", "ms", median(p.appendDurable))
	set("journal.bytes_per_event", "B", ratio(p.frameBytes, p.framed))

	set("trace.ops_per_s", "ops/s", float64(m.ok)/m.elapsed.Seconds())
	set("trace.spans_per_op", "count", per(float64(len(spans))))

	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "admbench: self time %-22s %8.4f ms/op over %d spans\n", n, self[n]/ops, len(byName[n]))
	}
	return nil
}

// passStats pools the direct passes over every plane.
type passStats struct {
	establish, terminate, failLink []float64
	allocs                         []float64
	levelChanges, directChained    float64
	events, managerMs              float64
	flood, candidates              []float64
	export, snapshot               []float64
	exportAllocs, exportKB         float64
	appendDurable                  []float64
	frameBytes, framed             float64
}

const (
	passEvents   = 2000 // journal tail replayed through the manager
	passFloods   = 300
	passAppends  = 200
	passExports  = 10
	passSnapshot = 5
)

func (p *passStats) run(ctx context.Context, tr *tracer, pl *plane, dir string) error {
	root := tr.id()
	var err error
	tr.timedAs(root, "pass.manager", 0, "", func() { err = p.replay(tr, root, pl) })
	if err != nil {
		return err
	}
	final := pl.rebuilt
	root = tr.id()
	tr.timedAs(root, "pass.routing", 0, "", func() { p.floods(tr, root, pl.g, final, pl.log()) })
	var exports []float64
	for i := 0; i < passExports; i++ {
		tr.timed("pass.export", 0, "", func() {
			t0 := time.Now()
			final.ExportState()
			exports = append(exports, ms(t0))
		})
	}
	p.export = append(p.export, median(exports))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	final.ExportState()
	runtime.ReadMemStats(&m1)
	p.exportAllocs += float64(m1.Mallocs - m0.Mallocs)
	p.exportKB += float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
	tr.timed("pass.journal", 0, "", func() { err = p.journal(ctx, final, pl.log(), dir) })
	return err
}

// replay re-applies the run's journal records to a manager restored from
// the state they start from — the tapped measured phase where there is a
// tap, else the tail after the last snapshot — timing each manager call of
// the last passEvents records (earlier ones only bring the state up to
// date).
func (p *passStats) replay(tr *tracer, root uint64, pl *plane) error {
	var m *manager.Manager
	var err error
	evs := pl.rec.Events
	switch {
	case pl.tapStart != nil:
		m, err = manager.Restore(pl.g, managerConfig, pl.tapStart)
		evs = pl.tapped
	case pl.rec.SnapshotHeader != nil:
		st, uerr := manager.UnmarshalState(pl.rec.SnapshotBody)
		if uerr != nil {
			return uerr
		}
		m, err = manager.Restore(pl.g, managerConfig, st)
	default:
		m, err = manager.New(pl.g, managerConfig)
	}
	if err != nil {
		return err
	}
	firstTimed := len(evs) - passEvents
	var ms0, ms1 runtime.MemStats
	for i, ev := range evs {
		timed := i >= firstTimed
		if timed && ev.Kind == journal.KindEstablish {
			runtime.ReadMemStats(&ms0)
		}
		start := time.Now()
		changes, chained, err := apply(m, ev)
		d := ms(start)
		if err != nil {
			return fmt.Errorf("pass: seq %d (%v): %w", ev.Seq, ev.Kind, err)
		}
		if !timed || ev.Kind == journal.KindCommit || ev.Kind == journal.KindTerm {
			continue
		}
		switch ev.Kind {
		case journal.KindEstablish:
			runtime.ReadMemStats(&ms1)
			p.establish = append(p.establish, d)
			p.allocs = append(p.allocs, float64(ms1.Mallocs-ms0.Mallocs))
			p.directChained += float64(chained)
		case journal.KindTerminate:
			p.terminate = append(p.terminate, d)
		case journal.KindFailLink:
			p.failLink = append(p.failLink, d)
		}
		if tr != nil {
			end := tr.now()
			tr.add(span{ID: tr.id(), Parent: root, Name: "pass.manager." + ev.Kind.String(), Start: end - int64(d*1e6), End: end})
		}
		p.managerMs += d
		p.levelChanges += float64(changes)
		p.events++
	}
	return nil
}

// apply performs one journal record on m the way the server did,
// returning the level changes and directly chained connections it caused.
func apply(m *manager.Manager, ev journal.Event) (changes, chained int, err error) {
	switch ev.Kind {
	case journal.KindEstablish:
		rep, err := m.Establish(topology.NodeID(ev.Src), topology.NodeID(ev.Dst), eventSpec(ev))
		if errors.Is(err, manager.ErrRejected) {
			return 0, 0, nil
		}
		if err != nil {
			return 0, 0, err
		}
		return len(rep.Changes), len(rep.DirectlyChained), nil
	case journal.KindTerminate:
		rep, err := m.Terminate(channel.ConnID(ev.Conn))
		if err != nil {
			return 0, 0, err
		}
		return len(rep.Changes), 0, nil
	case journal.KindFailLink:
		rep, err := m.FailLink(topology.LinkID(ev.Link))
		if err != nil {
			return 0, 0, err
		}
		return len(rep.Changes), 0, nil
	case journal.KindRepairLink:
		_, err := m.RepairLink(topology.LinkID(ev.Link))
		return 0, 0, err
	case journal.KindPrepare:
		path := routing.Path{}
		for _, n := range ev.PathNodes {
			path.Nodes = append(path.Nodes, topology.NodeID(n))
		}
		for _, l := range ev.PathLinks {
			path.Links = append(path.Links, topology.LinkID(l))
		}
		rep, err := m.EstablishFixed(topology.NodeID(ev.Src), topology.NodeID(ev.Dst), eventSpec(ev), path)
		if errors.Is(err, manager.ErrRejected) {
			return 0, 0, nil
		}
		if err != nil {
			return 0, 0, err
		}
		return len(rep.Changes), 0, nil
	}
	return 0, 0, nil // commits and term markers leave the manager alone
}

// floods runs bounded flooding for the run's own establish requests
// against the final reservation state, as the manager would.
func (p *passStats) floods(tr *tracer, root uint64, g *topology.Graph, m *manager.Manager, evs []journal.Event) {
	var scratch routing.FloodScratch
	cfg := m.Config()
	allowance := func(l topology.LinkID, from topology.NodeID) float64 {
		return float64(m.Network().AdmissionHeadroom(g.DirID(l, from)))
	}
	n := 0
	for _, ev := range evs {
		if ev.Kind != journal.KindEstablish || n >= passFloods {
			continue
		}
		n++
		tr.timed("pass.routing.flood", root, "", func() {
			t0 := time.Now()
			cands, _ := scratch.BoundedFlood(g, topology.NodeID(ev.Src), topology.NodeID(ev.Dst), allowance, routing.FloodConfig{
				HopBound: cfg.HopBound, MinBandwidth: float64(ev.MinKbps), MaxCandidates: cfg.MaxCandidates,
			})
			p.flood = append(p.flood, ms(t0))
			p.candidates = append(p.candidates, float64(len(cands)))
		})
	}
}

// journal appends the run's events to a standalone group-commit journal
// one durable append at a time, then times snapshot writes of the final
// state (export, encode, write, fsync, rotate).
func (p *passStats) journal(ctx context.Context, m *manager.Manager, evs []journal.Event, dir string) error {
	if len(evs) == 0 {
		return nil
	}
	jnl, _, err := journal.Open(dir, journalOpts)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			_ = jnl.Close()
		}
	}()
	sample := evs
	if len(sample) > passAppends {
		sample = sample[:passAppends]
	}
	p.frameBytes += float64(len(journal.EncodeFrames(sample)))
	p.framed += float64(len(sample))
	for _, ev := range sample {
		t0 := time.Now()
		seq, err := jnl.AppendAsync(ev)
		if err == nil {
			err = jnl.WaitDurable(ctx, seq)
		}
		if err != nil {
			return err
		}
		p.appendDurable = append(p.appendDurable, ms(t0))
	}
	for i := 0; i < passSnapshot; i++ {
		// A snapshot needs a record it does not yet cover.
		if _, err := jnl.AppendAsync(sample[i%len(sample)]); err != nil {
			return err
		}
		t0 := time.Now()
		st := m.ExportState()
		hdr := journal.SnapshotHeader{
			Alive: m.AliveCount(), Unprotected: m.UnprotectedCount(), LevelHistogram: m.LevelHistogram(nil),
			Requests: m.Requests(), Rejects: m.Rejects(),
		}
		if err := jnl.WriteSnapshot(hdr, st.MarshalBinary()); err != nil {
			return err
		}
		p.snapshot = append(p.snapshot, ms(t0))
	}
	closed = true
	return jnl.Close()
}

func eventSpec(ev journal.Event) qos.ElasticSpec {
	return qos.ElasticSpec{Min: qos.Kbps(ev.MinKbps), Max: qos.Kbps(ev.MaxKbps), Increment: qos.Kbps(ev.IncKbps), Utility: ev.Utility}
}

func ms(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// journalTap copies the measured phase's journal records before the
// snapshots that compact them on disk delete them: the server calls
// beforeSnapshot from its snapshot path, and finish drains the rest.
type journalTap struct {
	jnl *journal.Journal

	mu     sync.Mutex
	active bool
	start  *manager.State
	next   uint64
	evs    []journal.Event
	err    error
}

// begin starts copying after the last record the epoch covers, from the
// epoch's state. The server may defer a publish while commands are queued,
// so the journal's tip can be ahead of the published state.
func (t *journalTap) begin(v *server.EpochView) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.active, t.start, t.next = true, v.State, v.JournalSeq+1
}

// beforeSnapshot makes every written record readable and copies it.
func (t *journalTap) beforeSnapshot() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.active || t.err != nil {
		return
	}
	if err := t.jnl.Sync(); err != nil {
		t.err = err
		return
	}
	t.drainLocked()
}

func (t *journalTap) drainLocked() {
	for t.err == nil {
		evs, err := t.jnl.ReadFrom(t.next, 4096)
		if err != nil {
			t.err = fmt.Errorf("journal tap at seq %d: %w", t.next, err)
			return
		}
		if len(evs) == 0 {
			return
		}
		t.evs = append(t.evs, evs...)
		t.next = evs[len(evs)-1].Seq + 1
	}
}

// finish stops copying after a final drain and returns the copy.
func (t *journalTap) finish() ([]journal.Event, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.active {
		t.drainLocked()
		t.active = false
	}
	return t.evs, t.err
}
