package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/server"
	"drqos/internal/topology"
)

// plane is one manager's worth of final state: the single plane, or one
// shard with its sub graph.
type plane struct {
	g       *topology.Graph
	jdir    string
	state   *manager.State
	fp      string
	rec     *journal.Recovered
	rebuilt *manager.Manager

	// Traced single-plane runs: the state the measured phase started from
	// and every record it journaled.
	tapStart *manager.State
	tapped   []journal.Event
}

// log is the plane's own operation log: the tapped measured phase where
// there is one, else the journal tail after the last snapshot.
func (p *plane) log() []journal.Event {
	if p.tapStart != nil {
		return p.tapped
	}
	return p.rec.Events
}

type finalState struct {
	planes   []*plane
	meanKbps float64
}

// check runs every independent output check. It quiesces the stack,
// captures the final state, closes the services and replays the journals.
// problems lists failed checks; err reports a benchmark that could not
// run its checks at all.
func check(ctx context.Context, st *stack) (problems []string, final finalState, err error) {
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }

	srvs := st.servers()
	for i, srv := range srvs {
		p := &plane{g: st.g, jdir: filepath.Join(st.dir, "primary")}
		if st.coord != nil {
			p.g = st.coord.Plan().Subs[i].Graph
			p.jdir = filepath.Join(st.dir, "shards", fmt.Sprintf("shard-%03d", i))
		}
		// The audit runs in the actor loop; the command after the last
		// mutation also flushes any deferred epoch, so View is final.
		if err := srv.CheckInvariants(ctx); err != nil {
			fail("plane %d: server invariant audit: %v", i, err)
		}
		if p.fp, err = srv.StateFingerprint(ctx); err != nil {
			return nil, final, err
		}
		p.state = srv.View().State
		if got := p.state.Fingerprint(); got != p.fp {
			fail("plane %d: published epoch %s is not the live state %s", i, got, p.fp)
		}
		for _, msg := range validate(p.g, managerConfig.Capacity, p.state) {
			fail("plane %d: %s", i, msg)
		}
		final.planes = append(final.planes, p)
	}

	final.meanKbps = meanReserved(st)

	held := st.book.ids()
	if st.coord != nil {
		for _, msg := range checkSharded(ctx, st, final.planes, held) {
			fail("%s", msg)
		}
	} else {
		alive := map[int64]bool{}
		for _, c := range final.planes[0].state.Conns {
			alive[c.ID] = true
		}
		for _, msg := range diffSets("ledger", held, "alive set", alive) {
			fail("%s", msg)
		}
	}

	if st.fsrv != nil {
		for _, msg := range checkStandby(ctx, st, final.planes[0]) {
			fail("%s", msg)
		}
	}

	// Replay: every journal, closed, rebuilds to the live fingerprint.
	if err := st.closeServices(); err != nil {
		return nil, final, fmt.Errorf("closing the stack: %w", err)
	}
	for i, p := range final.planes {
		jnl, rec, err := journal.Open(p.jdir, journalOpts)
		if err != nil {
			return nil, final, err
		}
		p.rec = rec
		var m *manager.Manager
		if st.coord != nil {
			m, _, err = server.RebuildWithTxns(p.g, managerConfig, rec)
		} else {
			m, err = server.Rebuild(p.g, managerConfig, rec)
		}
		if cerr := jnl.Close(); cerr != nil {
			return nil, final, cerr
		}
		if err != nil {
			fail("plane %d: journal replay: %v", i, err)
			continue
		}
		p.rebuilt = m
		if got := m.ExportState().Fingerprint(); got != p.fp {
			fail("plane %d: journal replays to %s, live state was %s", i, got, p.fp)
		}
	}
	return problems, final, nil
}

// validate recomputes, from a state and its graph alone, that every path
// is a src→dst walk, every level lies on the spec's grid, granted primary
// bandwidth fits each directed link, and — with no link failed — primary
// minima plus the single-failure backup spare fit as well.
func validate(g *topology.Graph, capacity qos.Kbps, st *manager.State) []string {
	var out []string
	nd := g.NumDirLinks()
	grant := make([]qos.Kbps, nd)
	minSum := make([]qos.Kbps, nd)
	conflict := make([]map[int32]qos.Kbps, nd)
	failed := map[int32]bool{}
	for _, l := range st.FailedLinks {
		failed[l] = true
	}
	for _, c := range st.Conns {
		if err := c.Spec.Validate(); err != nil {
			out = append(out, fmt.Sprintf("conn %d: %v", c.ID, err))
			continue
		}
		if c.Level < 0 || int(c.Level) >= c.Spec.States() {
			out = append(out, fmt.Sprintf("conn %d: level %d outside [0,%d)", c.ID, c.Level, c.Spec.States()))
			continue
		}
		bw := c.Spec.Bandwidth(int(c.Level))
		prim, err := walk(g, c.Primary, c.Src, c.Dst)
		if err != nil {
			out = append(out, fmt.Sprintf("conn %d primary: %v", c.ID, err))
			continue
		}
		for _, l := range c.Primary.Links {
			if failed[l] {
				out = append(out, fmt.Sprintf("conn %d: primary crosses failed link %d", c.ID, l))
			}
		}
		for _, d := range prim {
			grant[d] += bw
			minSum[d] += c.Spec.Min
		}
		if !c.HasBackup {
			continue
		}
		back, err := walk(g, c.Backup, c.Src, c.Dst)
		if err != nil {
			out = append(out, fmt.Sprintf("conn %d backup: %v", c.ID, err))
			continue
		}
		for _, d := range back {
			if conflict[d] == nil {
				conflict[d] = map[int32]qos.Kbps{}
			}
			for _, f := range c.Primary.Links {
				conflict[d][f] += c.Spec.Min
			}
		}
	}
	for d := 0; d < nd; d++ {
		if grant[d] > capacity {
			out = append(out, fmt.Sprintf("directed link %d: granted %v > capacity %v", d, grant[d], capacity))
		}
		if len(failed) > 0 {
			continue
		}
		var spare qos.Kbps
		for _, v := range conflict[d] {
			spare = max(spare, v)
		}
		if minSum[d]+spare > capacity {
			out = append(out, fmt.Sprintf("directed link %d: minima %v + spare %v > capacity %v", d, minSum[d], spare, capacity))
		}
	}
	return out
}

// walk checks that p is a walk from src to dst over existing links and
// returns the directed links it traverses.
func walk(g *topology.Graph, p manager.PathState, src, dst int32) ([]topology.DirLinkID, error) {
	if len(p.Nodes) != len(p.Links)+1 || len(p.Links) == 0 {
		return nil, fmt.Errorf("%d nodes for %d links", len(p.Nodes), len(p.Links))
	}
	if p.Nodes[0] != src || p.Nodes[len(p.Nodes)-1] != dst {
		return nil, fmt.Errorf("runs %d→%d, want %d→%d", p.Nodes[0], p.Nodes[len(p.Nodes)-1], src, dst)
	}
	dirs := make([]topology.DirLinkID, len(p.Links))
	for i, l := range p.Links {
		if l < 0 || int(l) >= g.NumLinks() {
			return nil, fmt.Errorf("link %d does not exist", l)
		}
		lk := g.Link(topology.LinkID(l))
		a, b := topology.NodeID(p.Nodes[i]), topology.NodeID(p.Nodes[i+1])
		if !(lk.A == a && lk.B == b) && !(lk.A == b && lk.B == a) {
			return nil, fmt.Errorf("link %d joins %d-%d, not %d-%d", l, lk.A, lk.B, a, b)
		}
		dirs[i] = g.DirID(topology.LinkID(l), a)
	}
	return dirs, nil
}

// diffSets reports the members of one set missing from the other.
func diffSets(an string, a map[int64]bool, bn string, b map[int64]bool) []string {
	var out []string
	missing := func(from string, x map[int64]bool, in string, y map[int64]bool) {
		var ids []int64
		for id := range x {
			if !y[id] {
				ids = append(ids, id)
			}
		}
		if n := len(ids); n > 0 {
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			out = append(out, fmt.Sprintf("%d IDs of the %s are not in the %s, e.g. %v", n, from, in, ids[:min(n, 5)]))
		}
	}
	missing(an, a, bn, b)
	missing(bn, b, an, a)
	return out
}

// checkStandby waits until the standby has applied the primary's whole
// journal and compares fingerprints and alive sets.
func checkStandby(ctx context.Context, st *stack, primary *plane) []string {
	tip := st.jnl.LastSeq()
	if err := waitUntil(ctx, 10*time.Second, "standby catch-up", func() bool { return st.fjnl.LastSeq() >= tip }); err != nil {
		return []string{err.Error()}
	}
	var fp string
	// The follower applies a fetched batch after journaling it; wait for
	// its loop to reach the same state.
	err := waitUntil(ctx, 10*time.Second, "standby state", func() bool {
		var ferr error
		fp, ferr = st.fsrv.StateFingerprint(ctx)
		return ferr == nil && fp == primary.fp
	})
	if err != nil {
		return []string{fmt.Sprintf("standby fingerprint %s != primary %s", fp, primary.fp)}
	}
	if err := st.fsrv.CheckInvariants(ctx); err != nil {
		return []string{fmt.Sprintf("standby audit: %v", err)}
	}
	a, b := map[int64]bool{}, map[int64]bool{}
	for _, c := range primary.state.Conns {
		a[c.ID] = true
	}
	for _, c := range st.fsrv.View().State.Conns {
		b[c.ID] = true
	}
	return diffSets("primary alive set", a, "standby alive set", b)
}

// checkSharded compares the ledger with the shards' alive sets and checks
// the 2PC bookkeeping: nothing pending, every attempt resolved, and every
// held cross-shard connection pinned and alive on each peer shard.
func checkSharded(ctx context.Context, st *stack, planes []*plane, held map[int64]bool) []string {
	var out []string
	c := st.coord
	if n := c.PendingResolutions(); n != 0 {
		out = append(out, fmt.Sprintf("%d cross-shard resolutions pending", n))
	}
	attempts, committed, aborted := c.CrossStats()
	if attempts != committed+aborted {
		out = append(out, fmt.Sprintf("cross attempts %d != committed %d + aborted %d", attempts, committed, aborted))
	}
	// Live external IDs: intra connections as local*256+shard, cross ones
	// as txn*256+255 for every committed transaction.
	live := map[int64]bool{}
	txns := map[uint64]map[int]server.TxnInfo{}
	pinned := make([]map[int64]bool, len(planes))
	for i := range planes {
		infos, err := c.Shard(i).Txns(ctx)
		if err != nil {
			return append(out, fmt.Sprintf("shard %d txns: %v", i, err))
		}
		pinned[i] = map[int64]bool{}
		for _, tx := range infos {
			if txns[tx.Txn] == nil {
				txns[tx.Txn] = map[int]server.TxnInfo{}
			}
			txns[tx.Txn][i] = tx
			for _, pc := range tx.Conns {
				pinned[i][int64(pc.ID)] = true
			}
		}
	}
	for i, p := range planes {
		for _, cs := range p.state.Conns {
			if !pinned[i][cs.ID] {
				live[cs.ID*256+int64(i)] = true
			}
		}
	}
	for txn, parts := range txns {
		var peers uint32
		for _, tx := range parts {
			peers = tx.Peers
		}
		ok := true
		for s := 0; s < len(planes); s++ {
			if peers&(1<<uint(s)) == 0 {
				continue
			}
			tx, found := parts[s]
			if !found || !tx.Committed || len(tx.Conns) == 0 {
				ok = false
				continue
			}
			for _, pc := range tx.Conns {
				if !pc.Alive {
					ok = false
				}
			}
		}
		id := int64(txn)*256 + 255
		if !ok {
			if held[id] {
				out = append(out, fmt.Sprintf("held cross connection %d (txn %d) is not pinned and alive on every peer shard", id, txn))
			}
			continue
		}
		live[id] = true
	}
	return append(out, diffSets("ledger", held, "alive set", live)...)
}
