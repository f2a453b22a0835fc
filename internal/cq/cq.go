// Package cq implements the continuous-query substrate that the CLASH paper's
// target applications (NiagaraCQ/Xfilter-style stream filtering, Mobiscope
// telematics, multiplayer games) run on top of: long-lived queries expressed
// as attribute predicates scoped to a region of the hierarchical key space,
// matched against a stream of data events.
//
// The overlay stores each query on the CLASH server responsible for the
// query's identifier key; when a key group is split or merged, the queries
// whose keys fall in the moved group are extracted with ExtractGroup and
// shipped as state (the paper's state-transfer overhead, Figure 5 case B).
package cq

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"clash/internal/bitkey"
	"clash/internal/wirecodec"
)

// Errors returned by the query engine.
var (
	ErrDuplicateQuery = errors.New("cq: query id already registered")
	ErrUnknownQuery   = errors.New("cq: unknown query id")
	ErrInvalidQuery   = errors.New("cq: invalid query")
)

// Op is a comparison operator in a predicate.
type Op int

// Comparison operators.
const (
	OpEq Op = iota + 1
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the operator.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "=="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return "?"
	}
}

// Predicate is a single comparison over a named numeric attribute.
type Predicate struct {
	Attr  string
	Op    Op
	Value float64
}

// holds reports whether an attribute value satisfies the predicate.
func (p Predicate) holds(v float64) bool {
	switch p.Op {
	case OpEq:
		return v == p.Value
	case OpNe:
		return v != p.Value
	case OpLt:
		return v < p.Value
	case OpLe:
		return v <= p.Value
	case OpGt:
		return v > p.Value
	case OpGe:
		return v >= p.Value
	default:
		return false
	}
}

// Query is a long-lived continuous query: it subscribes to all data events
// whose identifier key falls inside Region and whose attributes satisfy every
// predicate.
type Query struct {
	// ID uniquely identifies the query (client-assigned).
	ID string
	// Region is the key-space scope of the query (a key-group prefix). Its
	// virtual key, padded to the full key length, is the query's identifier
	// key for CLASH placement purposes.
	Region bitkey.Group
	// Predicates are the attribute conditions; all must hold (conjunction).
	Predicates []Predicate
}

// Validate checks the query is well formed.
func (q Query) Validate(keyBits int) error {
	if q.ID == "" {
		return fmt.Errorf("%w: empty id", ErrInvalidQuery)
	}
	if q.Region.Depth() > keyBits {
		return fmt.Errorf("%w: region deeper than key space", ErrInvalidQuery)
	}
	for _, p := range q.Predicates {
		if p.Attr == "" {
			return fmt.Errorf("%w: predicate with empty attribute", ErrInvalidQuery)
		}
		if p.Op < OpEq || p.Op > OpGe {
			return fmt.Errorf("%w: bad operator %d", ErrInvalidQuery, p.Op)
		}
	}
	return nil
}

// IdentifierKey returns the query's N-bit identifier key (its region's
// virtual key), which CLASH uses to place the query on a server.
func (q Query) IdentifierKey(keyBits int) (bitkey.Key, error) {
	return q.Region.VirtualKey(keyBits)
}

// Matches reports whether the query matches a data event: the event's key
// lies in the query's region and every predicate holds on the event's
// attributes. A predicate on an attribute the event lacks never holds.
//
//clash:hotpath
func (q Query) Matches(ev Event) bool {
	if !q.Region.Contains(ev.Key) {
		return false
	}
	for _, p := range q.Predicates {
		if v, ok := ev.attr(p.Attr); !ok || !p.holds(v) {
			return false
		}
	}
	return true
}

// AppendWire appends the query's binary record to b: the format byte
// wirecodec.QueryFormat, the ID, the region as depth and value, the
// predicate count, then each predicate's attribute name, operator byte and
// value (see wirecodec). Registration, state transfer, replica pushes and
// recovery all carry this record. A non-finite predicate value or an
// operator outside OpEq..OpGe is an error, and b is then returned
// unextended.
func (q Query) AppendWire(b []byte) ([]byte, error) {
	for _, p := range q.Predicates {
		if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
			return b, fmt.Errorf("cq: encode query %q: unsupported value %v", q.ID, p.Value)
		}
		if p.Op < OpEq || p.Op > OpGe {
			return b, fmt.Errorf("cq: encode query %q: bad operator %d", q.ID, p.Op)
		}
	}
	b = append(b, wirecodec.QueryFormat)
	b = wirecodec.AppendString(b, q.ID)
	b = wirecodec.AppendInt(b, q.Region.Prefix.Bits)
	b = wirecodec.AppendUvarint(b, q.Region.Prefix.Value)
	b = wirecodec.AppendInt(b, len(q.Predicates))
	for _, p := range q.Predicates {
		b = wirecodec.AppendString(b, p.Attr)
		b = append(b, byte(p.Op))
		b = wirecodec.AppendFloat64(b, p.Value)
	}
	return b, nil
}

// UnmarshalQuery decodes the query record AppendWire writes. A decode
// allocates the ID, the predicate slice and one string per attribute name.
func UnmarshalQuery(rec []byte) (Query, error) {
	r := wirecodec.NewReader(rec)
	id, bits, value, n := r.QueryHeader()
	if err := r.Err(); err != nil {
		return Query{}, fmt.Errorf("cq: unmarshal query: %w", err)
	}
	region, err := bitkey.New(value, bits)
	if err != nil {
		return Query{}, fmt.Errorf("cq: unmarshal region: %w", err)
	}
	q := Query{ID: string(id), Region: bitkey.NewGroup(region)}
	if n > 0 {
		q.Predicates = make([]Predicate, 0, n)
	}
	for ; n > 0; n-- {
		name, op, v := r.Predicate()
		if err := r.Err(); err != nil {
			return Query{}, fmt.Errorf("cq: unmarshal query: %w", err)
		}
		if Op(op) < OpEq || Op(op) > OpGe || math.IsNaN(v) || math.IsInf(v, 0) {
			return Query{}, fmt.Errorf("cq: unmarshal query %q: bad predicate (op %d, value %v)", q.ID, op, v)
		}
		q.Predicates = append(q.Predicates, Predicate{Attr: string(name), Op: Op(op), Value: v})
	}
	return q, nil
}

// RecordKey returns a query record's ID and region, read in place: id
// aliases the record.
func RecordKey(rec []byte) (id []byte, region bitkey.Key, err error) {
	r := wirecodec.NewReader(rec)
	id, bits, value, _ := r.QueryHeader()
	if err := r.Err(); err != nil {
		return nil, bitkey.Key{}, fmt.Errorf("cq: query record: %w", err)
	}
	region, err = bitkey.New(value, bits)
	return id, region, err
}

// Event is one data record flowing through the system. Its numeric
// attributes (speed, fuel, score, ...) come either as a map or as the
// attribute section they travel in on the wire; a node matches the section
// in place rather than decode it into a map for every packet.
type Event struct {
	// Key is the event's N-bit identifier key (e.g. the quad-tree cell of the
	// reporting vehicle).
	Key bitkey.Key
	// Attrs carries the event's attributes as a map. When it is nil the
	// attributes are read from AttrSection.
	Attrs map[string]float64
	// AttrSection carries the event's attributes in their wire encoding
	// (wirecodec.AppendAttrs): a count, then each name and value in the
	// publisher's order. A name given twice takes its last value.
	AttrSection []byte
	// Payload is the opaque application payload.
	Payload []byte
}

// attr returns the value of the event's named attribute.
func (ev Event) attr(name string) (float64, bool) {
	if ev.Attrs != nil {
		v, ok := ev.Attrs[name]
		return v, ok
	}
	return wirecodec.LookupAttr(ev.AttrSection, name)
}

// Engine stores continuous queries and matches events against them. Queries
// are indexed by region prefix in a bit-trie, so matching an event is one
// O(N + matches) trie walk over the event key's prefixes — no per-depth string
// keys, no scan over every registered region. Each region's queries are one
// slice sorted by ID, so a region holding a single query costs that query's
// slice entry, not a map.
//
// Engine is safe for concurrent use.
type Engine struct {
	mu       sync.RWMutex
	keyBits  int
	byRegion *bitkey.Trie[[]Query] // region prefix → its queries, sorted by ID
	regions  map[string]bitkey.Key // id → region prefix
}

// NewEngine creates an engine for an N-bit key space.
func NewEngine(keyBits int) (*Engine, error) {
	if keyBits < 1 || keyBits > bitkey.MaxBits {
		return nil, fmt.Errorf("%w: key bits %d", bitkey.ErrBadLength, keyBits)
	}
	return &Engine{
		keyBits:  keyBits,
		byRegion: bitkey.NewTrie[[]Query](),
		regions:  make(map[string]bitkey.Key),
	}, nil
}

// Len returns the number of registered queries.
func (e *Engine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.regions)
}

// Register adds a query.
func (e *Engine) Register(q Query) error {
	if err := q.Validate(e.keyBits); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.regions[q.ID]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateQuery, q.ID)
	}
	prefix := q.Region.Prefix
	qs, _ := e.byRegion.Get(prefix)
	i, _ := slices.BinarySearchFunc(qs, q.ID, compareID)
	e.byRegion.Put(prefix, slices.Insert(qs, i, q))
	e.regions[q.ID] = prefix
	return nil
}

func compareID(q Query, id string) int { return strings.Compare(q.ID, id) }

// Get returns the stored query with the given id.
func (e *Engine) Get(id string) (Query, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	prefix, ok := e.regions[id]
	if !ok {
		return Query{}, false
	}
	qs, _ := e.byRegion.Get(prefix)
	i, ok := slices.BinarySearchFunc(qs, id, compareID)
	if !ok {
		return Query{}, false
	}
	return qs[i], true
}

// Unregister removes a query by id.
func (e *Engine) Unregister(id string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	prefix, ok := e.regions[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownQuery, id)
	}
	delete(e.regions, id)
	qs, _ := e.byRegion.Get(prefix)
	if len(qs) == 1 {
		e.byRegion.Delete(prefix) // an empty bucket takes its trie node with it
		return nil
	}
	i, _ := slices.BinarySearchFunc(qs, id, compareID)
	e.byRegion.Put(prefix, slices.Delete(qs, i, i+1))
	return nil
}

// Match returns the queries matched by an event, ordered by query ID for
// determinism.
func (e *Engine) Match(ev Event) []Query { return e.AppendMatch(nil, ev) }

// AppendMatch appends the queries matched by an event to dst, ordered by
// query ID among themselves, and returns the extended slice. A caller that
// passes a stack array's slice matches without allocating while the matches
// fit in it.
//
//clash:hotpath
func (e *Engine) AppendMatch(dst []Query, ev Event) []Query {
	e.mu.RLock()
	defer e.mu.RUnlock()
	start := len(dst)
	e.byRegion.VisitMatches(ev.Key, func(_ bitkey.Key, qs []Query) bool {
		for i := range qs {
			if qs[i].Matches(ev) {
				dst = append(dst, qs[i])
			}
		}
		return true
	})
	sortQueriesByID(dst[start:])
	return dst
}

// sortQueriesByID orders queries by ID without the sort package's interface
// boxing: match sets are small (often 0–2 queries), so an insertion sort on
// the concrete slice beats sort.Slice's allocation on the publish hot path.
func sortQueriesByID(qs []Query) {
	for i := 1; i < len(qs); i++ {
		for j := i; j > 0 && qs[j].ID < qs[j-1].ID; j-- {
			qs[j], qs[j-1] = qs[j-1], qs[j]
		}
	}
}

// All returns every registered query, ordered by ID. The simulator's
// durability invariant walks it to check that no registration was lost to a
// crash.
func (e *Engine) All() []Query {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]Query, 0, len(e.regions))
	e.byRegion.Visit(func(_ bitkey.Key, qs []Query) bool {
		out = append(out, qs...)
		return true
	})
	slices.SortFunc(out, compareIDs)
	return out
}

func compareIDs(a, b Query) int { return strings.Compare(a.ID, b.ID) }

// VisitInGroup calls fn with every query whose identifier key falls inside
// the given key group, by region prefix and then by ID, without copying the
// set. fn runs under the engine's read lock: it must not call back into the
// engine. The overlay's replica push walks a group's queries this way.
func (e *Engine) VisitInGroup(g bitkey.Group, fn func(Query)) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.visitInGroup(g, func(_ bitkey.Key, qs []Query) {
		for i := range qs {
			fn(qs[i])
		}
	})
}

// CountInGroup returns how many queries fall inside g, without copying or
// sorting them.
func (e *Engine) CountInGroup(g bitkey.Group) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := 0
	e.visitInGroup(g, func(_ bitkey.Key, qs []Query) { n += len(qs) })
	return n
}

// visitInGroup calls fn with every region bucket whose queries' identifier
// keys fall inside g, in region prefix order. Callers hold e.mu.
func (e *Engine) visitInGroup(g bitkey.Group, fn func(bitkey.Key, []Query)) {
	// A region's identifier key is its virtual key (prefix padded with
	// zeroes), so a region falls inside g in exactly two cases:
	//
	//   - region depth < g's depth, the region is a prefix of g's prefix, and
	//     the zero padding supplies g's remaining bits (i.e. the rest of g's
	//     prefix is all zeroes): nodes on the path to g's prefix;
	//   - region depth ≥ g's depth and g's prefix is a prefix of the region:
	//     the trie subtree under g's prefix.
	// A group deeper than the key space contains no identifier keys at all.
	if g.Prefix.Bits > e.keyBits {
		return
	}
	gp := g.Prefix
	e.byRegion.VisitMatches(gp, func(p bitkey.Key, qs []Query) bool {
		if p.Bits < gp.Bits && gp.Value&((1<<uint(gp.Bits-p.Bits))-1) == 0 {
			fn(p, qs)
		}
		return true
	})
	e.byRegion.VisitSubtree(gp, func(p bitkey.Key, qs []Query) bool {
		fn(p, qs)
		return true
	})
}

// ExtractGroup removes and returns the queries whose identifier key falls
// inside the given key group, ordered by ID. The overlay calls it when a key
// group is transferred to another server. Region membership is all or
// nothing, so whole buckets leave the trie.
func (e *Engine) ExtractGroup(g bitkey.Group) []Query {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []Query
	var prefixes []bitkey.Key
	e.visitInGroup(g, func(p bitkey.Key, qs []Query) {
		prefixes = append(prefixes, p)
		out = append(out, qs...)
	})
	for _, p := range prefixes {
		e.byRegion.Delete(p)
	}
	for _, q := range out {
		delete(e.regions, q.ID)
	}
	slices.SortFunc(out, compareIDs)
	return out
}
