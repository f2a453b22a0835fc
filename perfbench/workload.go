package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clash/internal/bitkey"
	"clash/internal/cq"
	"clash/internal/overlay"
	"clash/internal/workload"
)

// Input sizes. The key table is cycled by every publisher; the warm phase
// publishes it twice, with load checks during the first pass only.
const (
	tableLen      = 1 << 16
	streamLen     = 50
	hotQueries    = 32
	warmShapeLen  = 1 << 14
	warmCheckEach = 2048
	capacity      = 1000
)

// Churn episode schedule: one register every registerEvery ops, a load
// check on every node every churnCheckEach ops, then coolChecks load checks
// with no traffic so cold groups merge back.
const (
	churnOps       = 10500
	registerEvery  = 21
	churnCheckEach = 1000
	coolChecks     = 4
	// churnStride spreads an episode's publishes over the whole table, so
	// they sample its many streams rather than the first few.
	churnStride = 6
	// churnCapacity is lower than capacity because an episode's load
	// windows are shorter than the warm phase's: a node saturates at 300
	// publishes per 1000-op window.
	churnCapacity = 300
)

// inputs are everything the workloads feed the overlay, made from the seed
// alone.
type inputs struct {
	keys   []bitkey.Key
	speeds []float64
	hot    []cq.Query // regions and predicates; IDs are set per subscriber
	// hotMatch is, per table entry, the index of the hot query whose region
	// and predicate the packet satisfies, or -1. The regions are distinct
	// base regions, so there is at most one.
	hotMatch []int8
	hotKeys  []bitkey.Key // identifier key of each hot query
}

func makeInputs(seed int64) (*inputs, error) {
	spec := workload.SpecFor(workload.WorkloadB)
	spec.MeanStreamLen = streamLen
	gen, err := workload.NewKeyGenerator(spec, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	in := &inputs{keys: make([]bitkey.Key, tableLen), speeds: make([]float64, tableLen), hotMatch: make([]int8, tableLen)}
	attrs := rand.New(rand.NewSource(seed + 1))
	var key bitkey.Key
	left := 0
	for i := range in.keys {
		if left == 0 {
			key, left = gen.Next(), gen.NextStreamLength()
		}
		left--
		in.keys[i] = key
		in.speeds[i] = attrs.Float64() * 100
	}
	// The hot queries cover the most probable base regions, so the match
	// rate depends on the key distribution, not on which regions a seed
	// happened to draw.
	dist := gen.BaseDistribution()
	bases := make([]int, len(dist))
	for i := range bases {
		bases[i] = i
	}
	sort.SliceStable(bases, func(i, j int) bool { return dist[bases[i]] > dist[bases[j]] })
	for _, b := range bases[:hotQueries] {
		q := cq.Query{
			Region:     bitkey.NewGroup(bitkey.Key{Value: uint64(b), Bits: spec.BaseBits}),
			Predicates: []cq.Predicate{{Attr: "speed", Op: cq.OpGt, Value: 50}},
		}
		ik, err := q.IdentifierKey(keyBits)
		if err != nil {
			return nil, err
		}
		in.hot = append(in.hot, q)
		in.hotKeys = append(in.hotKeys, ik)
	}
	for i, k := range in.keys {
		in.hotMatch[i] = -1
		ev := cq.Event{Key: k, Attrs: map[string]float64{"speed": in.speeds[i]}}
		for j, q := range in.hot {
			if q.Matches(ev) {
				in.hotMatch[i] = int8(j)
			}
		}
	}
	return in, nil
}

// selective returns the j-th churn query: a depth-16 region, spread evenly
// over the key space by a golden-ratio step, with a predicate no generated
// packet satisfies, so it is stored, indexed, replicated and moved but
// never matched.
func selective(j int) cq.Query {
	return cq.Query{
		ID:         fmt.Sprintf("c-%d", j),
		Region:     bitkey.NewGroup(bitkey.Key{Value: uint64(j*40503) & 0xffff, Bits: 16}),
		Predicates: []cq.Predicate{{Attr: "speed", Op: cq.OpGt, Value: 100}},
	}
}

// recorder collects one publisher's (or the driver's) measurements.
type recorder struct {
	op, publish, register hist
	sl                    *slicer // op latencies by slice
	slices                []sliceStat
	ops, failed           int
	publishes, probes     int
	misses                int
	inline, expected      int
}

// finish closes the recorder's open slice at process time at.
func (r *recorder) finish(at time.Duration) {
	r.sl.flush(at)
	r.slices = append(r.slices, r.sl.stats...)
	r.sl.stats = nil
}

func (r *recorder) merge(o *recorder) {
	r.slices = append(r.slices, o.slices...)
	r.op.merge(&o.op)
	r.publish.merge(&o.publish)
	r.register.merge(&o.register)
	r.ops += o.ops
	r.failed += o.failed
	r.publishes += o.publishes
	r.probes += o.probes
	r.misses += o.misses
	r.inline += o.inline
	r.expected += o.expected
}

// procStart anchors the process clock every timestamp is taken on.
var procStart = time.Now()

func now() time.Duration { return time.Since(procStart) }

// Publish payloads carry the publisher and its sequence number so a
// subscriber can time the match from the publish's start.
const (
	timedBit  = uint64(1) << 63
	pubShift  = 56
	seqMask   = uint64(1)<<pubShift - 1
	startRing = 1 << 16
)

// session is one booted cluster with its clients and match bookkeeping.
type session struct {
	c          *cluster
	in         *inputs
	pubs       []*overlay.Client
	subs       []*overlay.Client
	registered int
	digest     string
	// hotAt is the node holding each hot query: the node whose active group
	// contains the query's identifier key (its region's virtual key). A
	// query is matched only by that node's engine, so a packet of its
	// region that lands on another node does not match it.
	hotAt []string

	starts [][]atomic.Int64 // per publisher: publish start (process clock) by seq
	seqs   []uint64
	timed  atomic.Bool
	// sliceAt places the timed phase's slices; set before timed is.
	sliceAt time.Duration

	inline        atomic.Int64 // matches publishes reported, all phases
	read          atomic.Int64 // matches read by subscribers, all phases
	readers       sync.WaitGroup
	stop          chan struct{}
	mu            sync.Mutex
	deliver       hist    // timed match delivery latency
	deliverSl     *slicer // inline reads (in-memory fabric)
	deliverSlices []sliceStat
}

func newSession(c *cluster, in *inputs) *session {
	return &session{c: c, in: in, stop: make(chan struct{})}
}

// startTimed marks the session's next publishes as timed, with slices of
// the given width starting now (width 0: one slice for the whole phase,
// numbered idx).
func (s *session) startTimed(width time.Duration, idx int) {
	s.sliceAt = now()
	s.deliverSl = newSlicer(s.sliceAt, width, idx, deliveryTail)
	s.timed.Store(true)
}

func (s *session) addPublishers(n int) error {
	for i := 0; i < n; i++ {
		p, err := s.c.client("pub", i)
		if err != nil {
			return err
		}
		s.pubs = append(s.pubs, p)
		s.starts = append(s.starts, make([]atomic.Int64, startRing))
		s.seqs = append(s.seqs, 0)
	}
	return nil
}

// addSubscribers creates n subscriber clients and registers the hot queries
// on each under its own IDs. With async readers, each subscriber gets a
// goroutine that reads its match channel until the session stops.
func (s *session) addSubscribers(n int, async bool) error {
	for i := 0; i < n; i++ {
		sub, err := s.c.client("sub", i)
		if err != nil {
			return err
		}
		s.subs = append(s.subs, sub)
		if async {
			s.readers.Add(1)
			go s.readLoop(sub)
		}
	}
	for i, sub := range s.subs {
		for j, q := range s.in.hot {
			q.ID = fmt.Sprintf("%c-q-%d", 'a'+i, j)
			if _, err := sub.Register(q); err != nil {
				return fmt.Errorf("register %s: %w", q.ID, err)
			}
			s.registered++
		}
	}
	s.placeHot()
	return nil
}

// placeHot records which node holds each hot query. It runs after every
// change of layout: set-up and each load-check pass.
func (s *session) placeHot() {
	s.hotAt = s.hotAt[:0]
	for _, ik := range s.in.hotKeys {
		at := ""
		for _, n := range s.c.nodes {
			if _, ok := n.Server().ManagesKey(ik); ok {
				at = n.Addr()
				break
			}
		}
		s.hotAt = append(s.hotAt, at)
	}
}

// maintain runs a load-check pass and re-places the hot queries.
func (s *session) maintain() {
	s.c.maintain()
	s.placeHot()
}

func (s *session) readLoop(sub *overlay.Client) {
	defer s.readers.Done()
	var h hist
	var sl *slicer
	defer func() {
		s.mu.Lock()
		s.deliver.merge(&h)
		if sl != nil {
			sl.flush(now())
			s.deliverSlices = append(s.deliverSlices, sl.stats...)
		}
		s.mu.Unlock()
	}()
	for {
		select {
		case m := <-sub.Matches():
			if sl == nil && s.timed.Load() {
				sl = s.deliverSl.clone()
			}
			s.onMatch(m, &h, sl)
		case <-s.stop:
			return
		}
	}
}

func (s *session) onMatch(m overlay.Match, h *hist, sl *slicer) {
	at := now()
	s.read.Add(1)
	if len(m.Payload) != 8 {
		return
	}
	v := binary.LittleEndian.Uint64(m.Payload)
	if v&timedBit == 0 {
		return
	}
	p := int(v>>pubShift) & 0x7f
	if p < len(s.starts) && sl != nil {
		lat := int64(at) - s.starts[p][v&seqMask%startRing].Load()
		h.record(lat)
		sl.record(at, lat)
	}
}

// drainInline reads every match already queued on the subscribers (the
// in-memory fabric pushes inline, so a publish's matches are queued by the
// time it returns). On TCP the reader goroutines do this.
func (s *session) drainInline() {
	if s.c.cfg.tcp {
		return
	}
	for _, sub := range s.subs {
		for {
			select {
			case m := <-sub.Matches():
				s.onMatch(m, &s.deliver, s.deliverSl)
				continue
			default:
			}
			break
		}
	}
}

// publish sends table entry e from publisher p and records the outcome.
func (s *session) publish(p int, e int, attrs map[string]float64, payload []byte, r *recorder) {
	seq := s.seqs[p] & seqMask
	s.seqs[p]++
	v := uint64(p)<<pubShift | seq
	if s.timed.Load() {
		v |= timedBit
	}
	binary.LittleEndian.PutUint64(payload, v)
	attrs["speed"] = s.in.speeds[e]
	var id int32
	if tr := s.c.tracer; tr != nil {
		id = tr.begin("publish", "")
	}
	start := now()
	s.starts[p][seq%startRing].Store(int64(start))
	res, err := s.pubs[p].Publish(s.in.keys[e], attrs, payload)
	end := now()
	el := int64(end - start)
	if tr := s.c.tracer; tr != nil {
		tr.end(id)
	}
	r.ops++
	if err != nil {
		r.failed++
		return
	}
	r.op.record(el)
	if r.sl != nil {
		r.sl.record(end, el)
	}
	r.publish.record(el)
	r.publishes++
	r.probes += res.Probes
	if res.Probes > 1 {
		r.misses++
	}
	r.inline += len(res.Matches)
	s.inline.Add(int64(len(res.Matches)))
	if j := s.in.hotMatch[e]; j >= 0 && s.hotAt[j] == res.Server {
		r.expected += len(s.subs)
	}
}

// register installs the j-th selective query through the first subscriber.
func (s *session) register(j int, r *recorder) {
	q := selective(j)
	r.ops++
	var id int32
	if tr := s.c.tracer; tr != nil {
		id = tr.begin("register", "")
		tr.registering.Store(true)
	}
	start := now()
	_, err := s.subs[0].Register(q)
	end := now()
	el := int64(end - start)
	if tr := s.c.tracer; tr != nil {
		tr.registering.Store(false)
		tr.end(id)
	}
	if err != nil {
		r.failed++
		return
	}
	s.registered++
	r.op.record(el)
	r.sl.record(end, el)
	r.register.record(el)
}

// warm runs two passes: the first publishes the table's first warmShapeLen
// entries from one driver with a load check every warmCheckEach publishes,
// so the layout adapts to the load; the second, with no load checks, has
// each publisher send every distinct key among the entries it will send in
// the timed phase (one per stream), so every route cache learns the final
// layout. The layout is frozen afterwards.
func (s *session) warm() error {
	var r recorder
	attrs := map[string]float64{}
	payload := make([]byte, 8)
	for e := 0; e < warmShapeLen; e++ {
		s.publish(e%len(s.pubs), e, attrs, payload, &r)
		s.drainInline()
		if (e+1)%warmCheckEach == 0 {
			s.maintain()
		}
	}
	s.eachPublisher(&r, func(p int, r *recorder) bool {
		attrs := map[string]float64{}
		payload := make([]byte, 8)
		n := len(s.pubs)
		for e := p; e < tableLen; e += n {
			if e < n || s.in.keys[e] != s.in.keys[e-n] {
				s.publish(p, e, attrs, payload, r)
				s.drainInline()
			}
		}
		return true
	})
	if r.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d publishes failed", r.failed, r.ops)
	}
	return nil
}

// eachPublisher runs fn for every publisher, concurrently when there are
// several, each with its own recorder, and merges the recorders into r.
func (s *session) eachPublisher(r *recorder, fn func(p int, r *recorder) bool) {
	recs := make([]recorder, len(s.pubs))
	var wg sync.WaitGroup
	for p := range s.pubs {
		if r.sl != nil {
			recs[p].sl = r.sl.clone()
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			fn(p, &recs[p])
		}(p)
	}
	wg.Wait()
	for i := range recs {
		if recs[i].sl != nil {
			recs[i].finish(now())
		}
		r.merge(&recs[i])
	}
}

func (s *session) inlineTotal() int { return int(s.inline.Load()) }

// settle waits (bounded) until the subscribers have read every match the
// publishes reported inline, then stops the readers.
func (s *session) settle(inline int) {
	deadline := time.Now().Add(5 * time.Second)
	for int(s.read.Load()) < inline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(s.stop)
	s.readers.Wait()
}

// workloadDef is one benchmark workload: how to set a session up and how to
// drive its timed phase.
type workloadDef struct {
	name string
	tcp  bool
	// episodic workloads rebuild their cluster for every fixed-size episode
	// of timed work; the others set up, then drive until the deadline.
	episodic bool
	setup    func(in *inputs, seed int64, tg *tracing) (*session, error)
	drive    func(s *session, until time.Time, r *recorder)
}

var workloads = []workloadDef{
	// The publish read path alone: route cache, codec, frame round trip,
	// snapshot accept, cq.Match and inline push, with no socket, goroutine
	// handoff or control-plane work.
	{
		name: "mem-publish",
		setup: func(in *inputs, seed int64, tg *tracing) (*session, error) {
			return setupPublish(in, clusterConfig{replicas: 2, inlinePush: true, capacity: capacity, seed: seed, tracing: tg}, 1, 1)
		},
		drive: drivePublishMem,
	},
	// Writes beside reads on the same layers: table writes, snapshot swaps,
	// engine inserts, full-state replica pushes, CQ-carrying splits and
	// merges.
	{
		name:     "mem-register-churn",
		episodic: true,
		setup:    setupChurn,
		drive:    driveChurn,
	},
	// The only workload on real sockets: framing, mux reader and writer
	// loops, dispatch goroutines and async match push to two subscribers.
	{
		name: "tcp-fanout",
		tcp:  true,
		setup: func(in *inputs, seed int64, tg *tracing) (*session, error) {
			return setupPublish(in, clusterConfig{tcp: true, replicas: 2, capacity: capacity, seed: seed, tracing: tg}, 2, 2)
		},
		drive: drivePublishTCP,
	},
}

func findWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// setupPublish boots a cluster, registers the hot queries on every
// subscriber, and runs the warm phase.
func setupPublish(in *inputs, cfg clusterConfig, pubs, subs int) (s *session, err error) {
	c, err := bootCluster(cfg)
	if err != nil {
		return nil, err
	}
	s = newSession(c, in)
	defer func() {
		if err != nil {
			s.close()
			s = nil
		}
	}()
	if err := s.addSubscribers(subs, cfg.tcp); err != nil {
		return nil, err
	}
	if err := s.addPublishers(pubs); err != nil {
		return nil, err
	}
	if err := s.warm(); err != nil {
		return nil, err
	}
	s.digest = c.digest()
	return s, nil
}

// drivePublishMem publishes the table in order from one publisher until the
// deadline, reading each publish's inline matches right after it returns.
func drivePublishMem(s *session, until time.Time, r *recorder) {
	attrs := map[string]float64{}
	payload := make([]byte, 8)
	for i := 0; ; i++ {
		if i&63 == 0 && !time.Now().Before(until) {
			return
		}
		s.publish(0, i%tableLen, attrs, payload, r)
		s.drainInline()
	}
}

// drivePublishTCP runs one closed-loop goroutine per publisher, each
// cycling over its share of the table (the entries it published in the warm
// phase's second pass, so its route cache already holds them).
func drivePublishTCP(s *session, until time.Time, r *recorder) {
	s.eachPublisher(r, func(p int, r *recorder) bool {
		attrs := map[string]float64{}
		payload := make([]byte, 8)
		n := len(s.pubs)
		for i := 0; ; i++ {
			if i&63 == 0 && !time.Now().Before(until) {
				return true
			}
			s.publish(p, (p+i*n)%tableLen, attrs, payload, r)
		}
	})
}

// setupChurn boots a fresh cluster with the hot queries registered; the
// episode itself heats it.
func setupChurn(in *inputs, seed int64, tg *tracing) (*session, error) {
	c, err := bootCluster(clusterConfig{replicas: 2, inlinePush: true, capacity: churnCapacity, seed: seed, tracing: tg})
	if err != nil {
		return nil, err
	}
	s := newSession(c, in)
	if err := s.addSubscribers(1, false); err != nil {
		s.close()
		return nil, err
	}
	if err := s.addPublishers(1); err != nil {
		s.close()
		return nil, err
	}
	s.digest = c.digest()
	return s, nil
}

// driveChurn runs one fixed episode: publishes with a selective register
// every registerEvery ops and a load check every churnCheckEach ops, then a
// cool-down of load checks without traffic. The deadline is not consulted:
// the episode is the unit of work.
func driveChurn(s *session, _ time.Time, r *recorder) {
	attrs := map[string]float64{}
	payload := make([]byte, 8)
	j := 0
	for i := 0; i < churnOps; i++ {
		if i%registerEvery == registerEvery-1 {
			s.register(j, r)
			j++
		} else {
			s.publish(0, i*churnStride%tableLen, attrs, payload, r)
			s.drainInline()
		}
		if (i+1)%churnCheckEach == 0 {
			s.maintain()
			s.drainInline()
		}
	}
	for k := 0; k < coolChecks; k++ {
		s.maintain()
	}
	s.drainInline()
}

func (s *session) close() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.readers.Wait()
	s.c.close()
}
