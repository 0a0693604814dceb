package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"drqos/internal/core"
	"drqos/internal/forecast"
	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/replica"
	"drqos/internal/rng"
	"drqos/internal/server"
	"drqos/internal/shard"
	"drqos/internal/topology"
)

// workload is one traffic mix and the stack that serves it.
type workload struct {
	name       string
	transit    bool // transit-stub topology instead of the paper's Waxman graph
	target     int  // held population
	forecast   bool // run the live forecaster
	faults     bool // client 0 injects link fail/repair pairs
	replicated bool // primary + warm standby
	shards     int  // >0: region shards behind shard.NewHandler
	crossFrac  float64
}

var workloads = map[string]workload{
	"paper-load":      {name: "paper-load", target: 3000, forecast: true},
	"replicated-pair": {name: "replicated-pair", target: 300, faults: true, replicated: true},
	"sharded-cross":   {name: "sharded-cross", transit: true, target: 300, shards: 4, crossFrac: 0.25},
}

// Fixed deployment parameters: the paper's link capacity and elastic spec,
// the daemon's default journal, replication and forecast settings.
var (
	managerConfig = manager.Config{Capacity: core.PaperCapacity, RequireBackup: true}
	journalOpts   = journal.Options{FsyncEvery: 1, GroupCommit: true, GroupCommitMaxWait: 2 * time.Millisecond}
	spec          = qos.DefaultSpec()
)

const (
	topologySeed = 1
	leaseTime    = 375 * time.Millisecond
)

// stack is one booted deployment plus the benchmark's view of it. closers
// run in reverse order exactly once; the work directory is removed last.
type stack struct {
	w    workload
	g    *topology.Graph
	dir  string
	url  string
	tr   *tracer
	book *ledger

	srv  *server.Server   // single plane, or the replicated primary
	jnl  *journal.Journal // its journal
	fsrv *server.Server   // replicated standby
	fjnl *journal.Journal

	coord *shard.Coordinator
	tap   *journalTap // traced single plane only

	closers []func() error
	closed  bool
}

func (s *stack) onClose(fn func() error) { s.closers = append(s.closers, fn) }

// closeServices stops every listener, follower, server, resolver,
// forecaster and journal the stack started. Idempotent.
func (s *stack) closeServices() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var errs []error
	for i := len(s.closers) - 1; i >= 0; i-- {
		errs = append(errs, s.closers[i]())
	}
	return errors.Join(errs...)
}

// destroy closes the services and removes the work directory.
func (s *stack) destroy() error {
	err := s.closeServices()
	return errors.Join(err, os.RemoveAll(s.dir))
}

// servers lists every admission server that mutates state (the shards, or
// the single plane's primary).
func (s *stack) servers() []*server.Server {
	if s.coord != nil {
		out := make([]*server.Server, s.coord.NumShards())
		for i := range out {
			out[i] = s.coord.Shard(i)
		}
		return out
	}
	return []*server.Server{s.srv}
}

func buildGraph(w workload) (*topology.Graph, error) {
	kind := core.TopologyWaxman
	if w.transit {
		kind = core.TopologyTransitStub
	}
	sys, err := core.NewSystem(core.Options{Seed: topologySeed, Kind: kind, Nodes: 100})
	if err != nil {
		return nil, err
	}
	return sys.Graph(), nil
}

// boot builds the topology, starts the stack and preloads it to the
// target population. On error everything started so far is torn down.
func boot(ctx context.Context, w workload, target int, seed uint64, workRoot string, tr *tracer) (st *stack, err error) {
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workRoot, "admbench-")
	if err != nil {
		return nil, err
	}
	st = &stack{w: w, dir: dir, tr: tr, book: newLedger()}
	defer func() {
		if err != nil {
			err = errors.Join(err, st.destroy())
			st = nil
		}
	}()
	if st.g, err = buildGraph(w); err != nil {
		return st, err
	}
	gen := newPairGen(st.g, rng.New(seed^0x5eed5eed5eed5eed))
	var h http.Handler
	switch {
	case w.shards > 0:
		h, err = st.bootSharded(ctx, target, gen)
	default:
		h, err = st.bootSingle(ctx, target, gen)
	}
	if err != nil {
		return st, err
	}
	if err := st.serve(h); err != nil {
		return st, err
	}
	if w.replicated {
		if err := st.bootStandby(ctx); err != nil {
			return st, err
		}
	}
	return st, nil
}

// serve starts the front end on a loopback listener.
func (s *stack) serve(h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.tr.wrap(h), ReadHeaderTimeout: 10 * time.Second, ErrorLog: log.New(io.Discard, "", 0)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln)
	}()
	s.url = "http://" + ln.Addr().String()
	s.onClose(func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if err != nil {
			err = errors.Join(err, hs.Close())
		}
		<-done
		return err
	})
	return nil
}

// openJournal opens a journal under the stack's work directory and
// registers its Close.
func (s *stack) openJournal(name string) (*journal.Journal, error) {
	j, _, err := journal.Open(filepath.Join(s.dir, name), journalOpts)
	if err != nil {
		return nil, err
	}
	s.onClose(j.Close)
	return j, nil
}

// bootSingle preloads a manager directly, journaling every request exactly
// as the server would (write-ahead, rejections included), so the journal
// replays to the live state; then it starts the server over that manager.
func (s *stack) bootSingle(ctx context.Context, target int, gen *pairGen) (http.Handler, error) {
	jnl, err := s.openJournal("primary")
	if err != nil {
		return nil, err
	}
	s.jnl = jnl
	mgr, err := manager.New(s.g, managerConfig)
	if err != nil {
		return nil, err
	}
	for i := 0; mgr.AliveCount() < target; i++ {
		if i >= 4*target {
			return nil, fmt.Errorf("preload: %d alive after %d requests", mgr.AliveCount(), i)
		}
		if i%256 == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		src, dst := gen.pair()
		if _, err := jnl.AppendAsync(establishEvent(src, dst)); err != nil {
			return nil, err
		}
		rep, err := mgr.Establish(src, dst, spec)
		switch {
		case err == nil:
			s.book.add(s.book.size()%2, int64(rep.Conn.ID))
		case !errors.Is(err, manager.ErrRejected):
			return nil, err
		}
	}
	if err := jnl.WaitDurable(ctx, jnl.LastSeq()); err != nil {
		return nil, err
	}

	var node *replica.Node
	opt := server.Options{Journal: jnl}
	if s.tr != nil {
		s.tap = &journalTap{jnl: jnl}
		opt.AnnotateSnapshot = func(*journal.SnapshotHeader) { s.tap.beforeSnapshot() }
	}
	if s.w.forecast {
		opt.Forecast = &forecast.Config{
			Interval: 500 * time.Millisecond,
			OnSolve: func(f *forecast.Forecast, err error) {
				if err == nil && f != nil {
					s.tr.noteSolve(f.SolveDurationSeconds * 1000)
				}
			},
		}
	}
	if s.w.replicated {
		opt.WaitReplicated = func(ctx context.Context, seq uint64) error {
			return s.tr.hook(ctx, "replica.wait", func() error { return node.WaitReplicated(ctx, seq) })
		}
		opt.ReplicaStats = func() *server.ReplicaStats { return node.StatsBlock() }
	}
	srv, err := server.NewFromManager(s.g, mgr, opt)
	if err != nil {
		return nil, err
	}
	s.srv = srv
	s.onClose(func() error { return shutdown(srv) })
	h := server.NewHandler(srv)
	if s.w.replicated {
		node = replica.NewNode(srv, jnl, replica.Config{Lease: leaseTime})
		return node.FrontHandler(h), nil
	}
	return h, nil
}

// bootStandby starts a warm standby that follows the primary's stream and
// waits until it has caught up.
func (s *stack) bootStandby(ctx context.Context) error {
	fjnl, err := s.openJournal("standby")
	if err != nil {
		return err
	}
	s.fjnl = fjnl
	mgr, err := manager.New(s.g, managerConfig)
	if err != nil {
		return err
	}
	fsrv, err := server.NewFromManager(s.g, mgr, server.Options{Journal: fjnl, Follower: true})
	if err != nil {
		return err
	}
	s.fsrv = fsrv
	s.onClose(func() error { return shutdown(fsrv) })
	tr := &http.Transport{MaxConnsPerHost: 1}
	fnode := replica.NewNode(fsrv, fjnl, replica.Config{PrimaryURL: s.url, Lease: leaseTime, Transport: tr})
	runCtx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- fnode.Run(runCtx) }()
	s.onClose(func() error {
		fnode.Stop()
		cancel()
		err := <-done
		tr.CloseIdleConnections()
		if errors.Is(err, context.Canceled) {
			err = nil
		}
		return err
	})
	return waitUntil(ctx, 30*time.Second, "standby catch-up", func() bool {
		return fjnl.LastSeq() >= s.jnl.LastSeq()
	})
}

// bootSharded starts the region shards and preloads them through the
// coordinator's own establish path (2PC for cross-shard pairs).
func (s *stack) bootSharded(ctx context.Context, target int, gen *pairGen) (http.Handler, error) {
	c, err := shard.New(s.g, shard.Options{
		Shards:  s.w.shards,
		Dir:     filepath.Join(s.dir, "shards"),
		Manager: managerConfig,
		Journal: journalOpts,
		Invoke: func(ctx context.Context, shard int, phase string, call func(context.Context) error) error {
			return s.tr.hook(ctx, "shard."+phase, func() error { return call(ctx) })
		},
	})
	if err != nil {
		return nil, err
	}
	s.coord = c
	s.onClose(func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return c.Shutdown(ctx)
	})
	gen.setShards(c.Plan().NodeShard, s.w.crossFrac)
	for i := 0; s.book.size() < target; i++ {
		if i >= 4*target {
			return nil, fmt.Errorf("preload: %d held after %d requests", s.book.size(), i)
		}
		src, dst := gen.pair()
		res, err := c.Establish(ctx, src, dst, spec)
		switch {
		case err == nil:
			s.book.add(s.book.size()%2, res.ID)
		case !errors.Is(err, manager.ErrRejected):
			return nil, err
		}
	}
	return shard.NewHandler(c), nil
}

func shutdown(srv *server.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

func establishEvent(src, dst topology.NodeID) journal.Event {
	return journal.Event{
		Kind: journal.KindEstablish, Src: int32(src), Dst: int32(dst),
		MinKbps: int64(spec.Min), MaxKbps: int64(spec.Max), IncKbps: int64(spec.Increment), Utility: spec.Utility,
	}
}

func waitUntil(ctx context.Context, limit time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	return nil
}

// pairGen draws request endpoints from a seeded stream. With a shard map,
// a crossFrac share of pairs spans two shards and the rest stay inside one.
type pairGen struct {
	n         int
	r         *rng.Source
	nodeShard []int
	crossFrac float64
}

func newPairGen(g *topology.Graph, r *rng.Source) *pairGen {
	return &pairGen{n: g.NumNodes(), r: r}
}

func (p *pairGen) setShards(nodeShard []int, crossFrac float64) {
	p.nodeShard, p.crossFrac = nodeShard, crossFrac
}

func (p *pairGen) pair() (topology.NodeID, topology.NodeID) {
	src := p.r.Intn(p.n)
	if p.nodeShard == nil {
		for {
			if dst := p.r.Intn(p.n); dst != src {
				return topology.NodeID(src), topology.NodeID(dst)
			}
		}
	}
	cross := p.r.Float64() < p.crossFrac
	for {
		dst := p.r.Intn(p.n)
		if dst != src && (p.nodeShard[dst] != p.nodeShard[src]) == cross {
			return topology.NodeID(src), topology.NodeID(dst)
		}
	}
}
