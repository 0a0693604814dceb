package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"drqos/internal/rng"
	"drqos/internal/topology"
)

// ledger is the clients' record of held connections: acked establishes,
// minus acked terminates, minus the IDs faults reported dropped. Each
// connection belongs to the client that established it; only that client
// terminates or reads it.
type ledger struct {
	mu    sync.Mutex
	held  [2][]int64
	where map[int64]int // index in held[owner]
	owner map[int64]int
}

func newLedger() *ledger {
	return &ledger{where: map[int64]int{}, owner: map[int64]int{}}
}

func (l *ledger) add(client int, id int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.where[id] = len(l.held[client])
	l.owner[id] = client
	l.held[client] = append(l.held[client], id)
}

// count returns how many connections client holds.
func (l *ledger) count(client int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.held[client])
}

func (l *ledger) size() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.owner)
}

// pick returns a random connection held by client.
func (l *ledger) pick(client int, r *rng.Source) (int64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	h := l.held[client]
	if len(h) == 0 {
		return 0, false
	}
	return h[r.Intn(len(h))], true
}

func (l *ledger) remove(id int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c, ok := l.owner[id]
	if !ok {
		return
	}
	i, h := l.where[id], l.held[c]
	last := h[len(h)-1]
	h[i] = last
	l.where[last] = i
	l.held[c] = h[:len(h)-1]
	delete(l.where, id)
	delete(l.owner, id)
}

func (l *ledger) ids() map[int64]bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[int64]bool, len(l.owner))
	for id := range l.owner {
		out[id] = true
	}
	return out
}

type opKind int

const (
	opEstablish opKind = iota
	opTerminate
	opStats
	opConnRead
	opFail
	opRepair
	numOps
)

var opNames = [numOps]string{"establish", "terminate", "read.stats", "read.conn", "fault.fail", "fault.repair"}

// The op mix comes in whole rounds so that every run attempts the same
// share of each slot kind: two stats reads and one point read per round
// (1 op in 10 a read), the other slots mutations. Two stats reads to one
// point read keep the read median inside one of the two reads' latency
// modes rather than in the gap between them. Client 0 of a faulting
// workload turns the first slot of every faultEvery-th round into a link
// failure and the same slot half a period later into its repair.
const (
	roundLen   = 30
	readSlot   = 29
	faultEvery = 6
)

func statsSlot(slot int) bool { return slot == 9 || slot == 19 }

// client is one closed-loop load generator: it sends its next request only
// after the previous reply arrived, over its own single connection.
type client struct {
	id     int
	st     *stack
	hc     *http.Client
	tp     *http.Transport
	gen    *pairGen
	r      *rng.Source
	target int           // this client's share of the held population
	gate   *sync.RWMutex // faults exclude every other in-flight request

	lat       [numOps][]sample // successful ops only
	okAt      []float64        // completion offsets (s) of successful ops
	attempted int
	failed    [numOps]int
	unexpect  []string
	failedTo  topology.LinkID // link this client failed, -1 if none
	epochAges []float64       // ms, observed by stats reads
	seq       int

	start    time.Time     // of the measured phase
	progress *atomic.Int64 // attempted ops of both clients, for the CPU sampler
}

// sample is one successful op: when it completed (s into the measured
// phase) and how long it took (ms).
type sample struct{ at, ms float64 }

func newClient(id int, st *stack, seed uint64, target int, gate *sync.RWMutex) *client {
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	c := &client{
		id: id, st: st, tp: tp, hc: &http.Client{Transport: tp, Timeout: 60 * time.Second},
		r:      rng.New(seed*0x9E3779B97F4A7C15 + uint64(id) + 1),
		target: (target + 1 - id) / 2, gate: gate, failedTo: -1,
	}
	c.gen = newPairGen(st.g, rng.New(seed*0xBF58476D1CE4E5B9+uint64(id)+7))
	if st.coord != nil {
		c.gen.setShards(st.coord.Plan().NodeShard, st.w.crossFrac)
	}
	return c
}

// reset forgets everything recorded so far but the failed-op notes; the
// ledger and any failed link carry over.
func (c *client) reset() {
	c.lat = [numOps][]sample{}
	c.okAt = nil
	c.attempted = 0
	c.failed = [numOps]int{}
	c.epochAges = nil
}

// runRounds drives whole rounds until the deadline passes at a round
// boundary, or until rounds rounds are done if rounds > 0.
func (c *client) runRounds(ctx context.Context, deadline time.Time, rounds int) error {
	for round := 0; time.Now().Before(deadline) && (rounds == 0 || round < rounds); round++ {
		for slot := 0; slot < roundLen; slot++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := c.step(ctx, round, slot); err != nil {
				return err
			}
		}
	}
	return nil
}

// step performs one slot of a round. A fault and the ledger update its
// reply implies happen under the exclusive gate, so the other client never
// acts on a connection the fault dropped.
func (c *client) step(ctx context.Context, round, slot int) error {
	faultSlot := c.st.w.faults && c.id == 0 && slot == 0
	switch {
	case faultSlot && round%faultEvery == 0:
		c.gate.Lock()
		defer c.gate.Unlock()
		return c.fail(ctx)
	case faultSlot && round%faultEvery == faultEvery/2 && c.failedTo >= 0:
		c.gate.Lock()
		defer c.gate.Unlock()
		return c.repair(ctx)
	}
	c.gate.RLock()
	defer c.gate.RUnlock()
	switch {
	case statsSlot(slot):
		return c.readStats(ctx)
	case slot == readSlot:
		return c.readConn(ctx)
	}
	if c.st.book.count(c.id) >= c.target {
		if id, ok := c.st.book.pick(c.id, c.r); ok {
			return c.terminate(ctx, id)
		}
	}
	return c.establish(ctx)
}

// call sends one request and reads the whole reply. The latency runs from
// send to the last byte of the reply.
func (c *client) call(ctx context.Context, kind opKind, method, path string, body any) (int, []byte, float64, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.st.url+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	tr := c.st.tr
	root := span{ID: tr.id(), Name: "client." + opNames[kind]}
	if tr != nil {
		c.seq++
		root.Req = fmt.Sprintf("c%d-%d", c.id, c.seq)
		req.Header.Set("X-Request-ID", root.Req)
		req.Header.Set("X-Parent-Span", strconv.FormatUint(root.ID, 10))
		root.Start = tr.now()
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	if tr != nil {
		root.End = tr.now()
		tr.add(root)
	}
	return resp.StatusCode, data, ms, err
}

// finish accounts one attempted op. A transport error aborts the run only
// when the run itself is being cancelled; otherwise it is a failed op.
func (c *client) finish(ctx context.Context, kind opKind, ms float64, problem string, err error) error {
	c.attempted++
	if c.progress != nil {
		c.progress.Add(1)
	}
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		problem = err.Error()
	}
	if problem != "" {
		c.failed[kind]++
		if len(c.unexpect) < 5 && !(kind == opConnRead && c.st.coord != nil) {
			c.unexpect = append(c.unexpect, opNames[kind]+": "+problem)
		}
		return nil
	}
	at := time.Since(c.start).Seconds()
	c.lat[kind] = append(c.lat[kind], sample{at: at, ms: ms})
	c.okAt = append(c.okAt, at)
	return nil
}

func (c *client) establish(ctx context.Context) error {
	src, dst := c.gen.pair()
	code, data, ms, err := c.call(ctx, opEstablish, "POST", "/v1/connections", map[string]int{"src": int(src), "dst": int(dst)})
	problem := ""
	if err == nil {
		switch code {
		case http.StatusCreated:
			var r struct {
				ID            int64 `json:"id"`
				BandwidthKbps int64 `json:"bandwidth_kbps"`
			}
			if jerr := json.Unmarshal(data, &r); jerr != nil || r.ID <= 0 || !onGrid(r.BandwidthKbps) {
				problem = fmt.Sprintf("bad admit reply %s", data)
			} else {
				c.st.book.add(c.id, r.ID)
			}
		case http.StatusConflict:
			var r struct {
				Rejected bool `json:"rejected"`
			}
			if jerr := json.Unmarshal(data, &r); jerr != nil || !r.Rejected {
				problem = fmt.Sprintf("409 without rejection: %s", data)
			}
		default:
			problem = fmt.Sprintf("status %d: %s", code, data)
		}
	}
	return c.finish(ctx, opEstablish, ms, problem, err)
}

func (c *client) terminate(ctx context.Context, id int64) error {
	code, data, ms, err := c.call(ctx, opTerminate, "DELETE", "/v1/connections/"+strconv.FormatInt(id, 10), nil)
	problem := ""
	if err == nil {
		if code == http.StatusOK {
			c.st.book.remove(id)
		} else {
			problem = fmt.Sprintf("terminate %d: status %d: %s", id, code, data)
		}
	}
	return c.finish(ctx, opTerminate, ms, problem, err)
}

func (c *client) readStats(ctx context.Context) error {
	code, data, ms, err := c.call(ctx, opStats, "GET", "/v1/stats", nil)
	problem := ""
	if err == nil {
		var r struct {
			Alive *int `json:"alive"`
			Epoch *struct {
				AgeSeconds float64 `json:"age_seconds"`
			} `json:"epoch"`
			Aggregate *struct {
				Alive int `json:"alive"`
			} `json:"aggregate"`
			PerShard []struct {
				Epoch *struct {
					AgeSeconds float64 `json:"age_seconds"`
				} `json:"epoch"`
			} `json:"per_shard"`
		}
		switch jerr := json.Unmarshal(data, &r); {
		case code != http.StatusOK:
			problem = fmt.Sprintf("status %d: %s", code, data)
		case jerr != nil:
			problem = jerr.Error()
		case r.Alive == nil && r.Aggregate == nil:
			problem = "stats without a population"
		default:
			if r.Epoch != nil {
				c.epochAges = append(c.epochAges, r.Epoch.AgeSeconds*1000)
			}
			for _, s := range r.PerShard {
				if s.Epoch != nil {
					c.epochAges = append(c.epochAges, s.Epoch.AgeSeconds*1000)
				}
			}
		}
	}
	return c.finish(ctx, opStats, ms, problem, err)
}

func (c *client) readConn(ctx context.Context) error {
	id, ok := c.st.book.pick(c.id, c.r)
	if !ok {
		return fmt.Errorf("client %d holds no connection to read", c.id)
	}
	code, data, ms, err := c.call(ctx, opConnRead, "GET", "/v1/connections/"+strconv.FormatInt(id, 10), nil)
	problem := ""
	if err == nil {
		var r struct {
			ID            int64 `json:"id"`
			Alive         bool  `json:"alive"`
			BandwidthKbps int64 `json:"bandwidth_kbps"`
		}
		switch jerr := json.Unmarshal(data, &r); {
		case code != http.StatusOK:
			problem = fmt.Sprintf("read %d: status %d: %s", id, code, bytes.TrimSpace(data))
		case jerr != nil || r.ID != id || !r.Alive || !onGrid(r.BandwidthKbps):
			problem = fmt.Sprintf("read %d: held connection answered %s", id, data)
		}
	}
	return c.finish(ctx, opConnRead, ms, problem, err)
}

func (c *client) fail(ctx context.Context) error {
	if c.failedTo >= 0 {
		return c.repair(ctx)
	}
	link := topology.LinkID(c.r.Intn(c.st.g.NumLinks()))
	code, data, ms, err := c.call(ctx, opFail, "POST", "/v1/faults/link", map[string]any{"link": int(link), "action": "fail"})
	problem := ""
	if err == nil {
		var r struct {
			Dropped []int64 `json:"dropped"`
		}
		if jerr := json.Unmarshal(data, &r); code != http.StatusOK || jerr != nil {
			problem = fmt.Sprintf("fail link %d: status %d: %s", link, code, data)
		} else {
			c.failedTo = link
			for _, id := range r.Dropped {
				c.st.book.remove(id)
			}
		}
	}
	return c.finish(ctx, opFail, ms, problem, err)
}

func (c *client) repair(ctx context.Context) error {
	code, data, ms, err := c.call(ctx, opRepair, "POST", "/v1/faults/link", map[string]any{"link": int(c.failedTo), "action": "repair"})
	problem := ""
	if err == nil {
		if code != http.StatusOK {
			problem = fmt.Sprintf("repair link %d: status %d: %s", c.failedTo, code, data)
		} else {
			c.failedTo = -1
		}
	}
	return c.finish(ctx, opRepair, ms, problem, err)
}

// onGrid reports whether bw is a level of the workload's elastic spec.
func onGrid(bw int64) bool {
	return bw >= int64(spec.Min) && bw <= int64(spec.Max) && (bw-int64(spec.Min))%int64(spec.Increment) == 0
}
