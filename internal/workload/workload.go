// Package workload generates the experimental setups of the paper's
// Section 6 (Table 2): hierarchical relational schemas of configurable
// depth, synthetic data with a configurable number of leaf tuples and
// fanout, the XML view nesting children inside parents with the
// count(...) >= 2 predicate on the lowest level, and populations of
// structurally similar XML triggers with configurable selectivity. It
// also builds the same workload over a sharded engine (BuildSharded) and
// generates seeded, replayable update streams (GenStream) for the
// differential fuzzer in internal/conformance.
//
// # Key-space assumptions
//
// Everything downstream — UpdateOneLeaf's targeting, the shard router's
// root partitioning, and GenStream's replayability — leans on the
// deterministic id layout Build produces. The contract is:
//
//   - Top-level rows have ids 0..NumTop()-1, where NumTop() =
//     max(1, LeafTuples/Fanout). Ids are dense and never reused.
//   - Each deeper level uses per-table 0-based sequential ids; the parent
//     of row i at branching factor b is i/b. Consequently each top
//     element owns one contiguous block of Fanout leaves, and for
//     Depth == 2 the leaf with id i belongs to top element i/Fanout.
//   - The initial leaf id space is exactly 0..NumTop()*Fanout-1.
//     GenStream allocates fresh leaf ids upward from NumTop()*Fanout, so
//     generated inserts can never collide with seeded rows or each other.
//   - Payloads are floats: seeded rows draw from 50..249; GenStream
//     writes values >= 1000 that are unique within the stream, so a
//     generated update is never a no-op (a no-op would fire differently
//     through statement-level and batched execution paths).
//   - Streams are pure functions of (Params, StreamParams, seed): the
//     same inputs yield the same []Op, element for element
//     (TestGenStreamDeterministic pins this down — it is what makes a
//     fuzzer failure replayable from its logged seed).
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"quark/internal/core"
	"quark/internal/reldb"
	"quark/internal/schema"
	"quark/internal/xdm"
)

// Params mirrors Table 2. Defaults (the bold values; the plain-text paper
// lost the bolding, EXPERIMENTS.md records the inference): depth 2, 128K
// leaf tuples, 64 leaf tuples per top-level element, 10,000 triggers, 1
// satisfied trigger per update.
type Params struct {
	Depth        int // hierarchy depth (2 = product/vendor)
	LeafTuples   int // rows in the leaf table
	Fanout       int // leaf tuples per top-level XML element
	NumTriggers  int // structurally similar triggers
	NumSatisfied int // triggers satisfied per update
}

// Default returns the default parameters at a given scale factor: scale 1
// is the paper's default (128K leaves); smaller scales keep unit tests and
// -short benchmarks quick.
func Default() Params {
	return Params{Depth: 2, LeafTuples: 128 * 1024, Fanout: 64, NumTriggers: 10000, NumSatisfied: 1}
}

// TableName returns the name of the i-th level table (0 = top/root
// ancestor, Depth-1 = leaf). Depth 2 uses the paper's product/vendor names.
func (p Params) TableName(level int) string {
	if p.Depth == 2 {
		if level == 0 {
			return "product"
		}
		return "vendor"
	}
	return fmt.Sprintf("level%d", level)
}

// Setup is a generated experiment instance.
type Setup struct {
	Params  Params
	Schema  *schema.Schema
	DB      *reldb.DB
	Engine  *core.Engine
	ViewSrc string
	// Satisfied counts action invocations (the paper's "insert NEW_NODE
	// into a temporary table" stand-in).
	Notifications int
	// Names of top-level elements, by index (for trigger constants).
	TopNames []string

	rng *rand.Rand
}

// BuildSchema constructs the hierarchy: level0(id, name) and, for each
// deeper level i, leveli(id, parent, payload) with a foreign key to its
// parent (Section 6.1: "each child table has a foreign key column
// referencing its parent's primary key").
func BuildSchema(p Params) *schema.Schema {
	s := schema.New()
	for lvl := 0; lvl < p.Depth; lvl++ {
		t := &schema.Table{Name: p.TableName(lvl)}
		t.Columns = append(t.Columns, schema.Column{Name: "id", Type: schema.TInt})
		if lvl > 0 {
			t.Columns = append(t.Columns, schema.Column{Name: "parent", Type: schema.TInt})
		}
		if lvl == 0 {
			t.Columns = append(t.Columns, schema.Column{Name: "name", Type: schema.TString})
		} else {
			t.Columns = append(t.Columns, schema.Column{Name: "payload", Type: schema.TFloat})
		}
		t.PrimaryKey = []string{"id"}
		if lvl > 0 {
			t.ForeignKeys = []schema.ForeignKey{{
				Columns: []string{"parent"}, RefTable: p.TableName(lvl - 1), RefColumns: []string{"id"},
			}}
		}
		s.MustAddTable(t)
	}
	return s
}

// ViewSource builds the XQuery view: children nested inside parents, with
// the count(...) >= 2 predicate on the lowest level as in the paper's
// experiments ("the count(...) >= 2 predicate remained on the lowest
// level, that is, on the vendors").
func ViewSource(p Params) string {
	var b strings.Builder
	b.WriteString("<doc>\n")
	b.WriteString("{for $e0 in view('default')/" + p.TableName(0) + "/row\n")
	fmt.Fprintf(&b, " let $s1 := view('default')/%s/row[./parent = $e0/id]\n", p.TableName(1))
	if p.Depth == 2 {
		b.WriteString(" where count($s1) >= 2\n")
	}
	b.WriteString(" return <e0 name={$e0/name}>\n")
	b.WriteString(viewLevel(p, 1))
	b.WriteString(" </e0>}\n</doc>")
	return b.String()
}

// viewLevel emits the nested FLWOR iterating level lvl.
func viewLevel(p Params, lvl int) string {
	var b strings.Builder
	fmt.Fprintf(&b, " {for $e%d in $s%d\n", lvl, lvl)
	if lvl+1 < p.Depth {
		fmt.Fprintf(&b, "  let $s%d := view('default')/%s/row[./parent = $e%d/id]\n", lvl+1, p.TableName(lvl+1), lvl)
		if lvl == p.Depth-2 {
			fmt.Fprintf(&b, "  where count($s%d) >= 2\n", lvl+1)
		}
	}
	fmt.Fprintf(&b, "  return <e%d id={$e%d/id}>\n", lvl, lvl)
	if lvl == p.Depth-1 {
		fmt.Fprintf(&b, "   {$e%d/payload}\n", lvl)
	} else {
		b.WriteString(viewLevel(p, lvl+1))
	}
	fmt.Fprintf(&b, "  </e%d>}\n", lvl)
	return b.String()
}

// NumTop returns the number of top-level elements the layout produces
// (see the package doc's key-space contract).
func (p Params) NumTop() int {
	n := p.LeafTuples / p.Fanout
	if n < 1 {
		n = 1
	}
	return n
}

// branching returns the children-per-node factor at each level edge:
// Fanout spread over Depth-1 levels (factor 2 at intermediate edges, the
// remainder at the leaf edge).
func (p Params) branching() []int {
	branch := make([]int, p.Depth-1)
	remaining := p.Fanout
	for i := 0; i < p.Depth-2; i++ {
		branch[i] = 2
		remaining /= 2
	}
	if remaining < 1 {
		remaining = 1
	}
	branch[p.Depth-2] = remaining
	return branch
}

// genRows produces every level's initial rows (index 0 = the top table)
// plus the top names, drawing payloads from rng in the fixed order both
// Build and BuildSharded share — the single source of the key-space
// contract in the package doc.
func genRows(p Params, rng *rand.Rand) (topNames []string, levels [][]reldb.Row) {
	numTop := p.NumTop()
	branch := p.branching()
	topNames = make([]string, numTop)
	top := make([]reldb.Row, numTop)
	for i := 0; i < numTop; i++ {
		topNames[i] = fmt.Sprintf("Item %06d", i)
		top[i] = reldb.Row{xdm.Int(int64(i)), xdm.Str(topNames[i])}
	}
	levels = append(levels, top)
	parents := numTop
	for lvl := 1; lvl < p.Depth; lvl++ {
		bfac := branch[lvl-1]
		count := parents * bfac
		rows := make([]reldb.Row, count)
		for i := 0; i < count; i++ {
			rows[i] = reldb.Row{
				xdm.Int(int64(i)),
				xdm.Int(int64(i / bfac)),
				xdm.Float(float64(50 + rng.Intn(200))),
			}
		}
		levels = append(levels, rows)
		parents = count
	}
	return topNames, levels
}

// Build creates the schema, loads data, compiles the view, and registers
// the triggers in the given mode. Data layout: the number of top elements
// is LeafTuples/Fanout; intermediate levels use a uniform branching factor
// so that each top element owns Fanout leaves.
func Build(p Params, mode core.Mode, seed int64) (*Setup, error) {
	if p.Depth < 2 {
		return nil, fmt.Errorf("workload: depth must be >= 2")
	}
	s := BuildSchema(p)
	db, err := reldb.Open(s)
	if err != nil {
		return nil, err
	}
	w := &Setup{Params: p, Schema: s, DB: db, rng: rand.New(rand.NewSource(seed))}
	if w.TopNames, err = loadRows(p, w.rng, db); err != nil {
		return nil, err
	}
	w.Engine = core.NewEngine(db, mode)
	w.ViewSrc, err = install(w.Engine, p, w.TopNames, func(core.Invocation) error {
		w.Notifications++
		return nil
	})
	if err != nil {
		return nil, err
	}
	return w, nil
}

// loadRows inserts every level's rows through w, parents before children
// (a shard router resolves each level's owners from the level above), and
// returns the top names.
func loadRows(p Params, rng *rand.Rand, w reldb.Writer) ([]string, error) {
	topNames, levels := genRows(p, rng)
	for lvl, rows := range levels {
		if err := w.Insert(p.TableName(lvl), rows...); err != nil {
			return nil, err
		}
	}
	return topNames, nil
}

// install registers the notify action, the "doc" view and p's triggers on
// e and returns the view's source. numSatisfied of the triggers watch the
// name of top element 0 (the one UpdateOneLeaf targets); the rest use
// other names, so each update satisfies exactly numSatisfied triggers
// (Table 2's "number of satisfied triggers").
func install[T reldb.Writer](e core.Surface[T], p Params, topNames []string, notify core.ActionFunc) (string, error) {
	e.RegisterAction("notify", notify)
	src := ViewSource(p)
	if err := e.CreateView("doc", src); err != nil {
		return "", err
	}
	for i := 0; i < p.NumTriggers; i++ {
		if err := e.CreateTrigger(triggerSrc(topNames, i, min(p.NumSatisfied, p.NumTriggers))); err != nil {
			return "", err
		}
	}
	return src, nil
}

// triggerSrc renders the i-th structurally similar trigger: the first
// numSatisfied watch top element 0's name; the rest spread over the other
// names, so updates under any top element fire the triggers watching it.
func triggerSrc(topNames []string, i, numSatisfied int) string {
	name := topNames[0]
	if i >= numSatisfied {
		name = topNames[1+i%(max(1, len(topNames)-1))]
		if name == topNames[0] {
			name = "No Such Item"
		}
	}
	return fmt.Sprintf(`CREATE TRIGGER trig%d AFTER UPDATE ON view('doc')/e0 WHERE NEW_NODE/@name = '%s' DO notify(NEW_NODE)`, i, name)
}

// LeafTable returns the leaf table's name.
func (w *Setup) LeafTable() string { return w.Params.TableName(w.Params.Depth - 1) }

// UpdateOneLeaf performs one independent single-row update on the leaf
// table, targeting a leaf under top element 0 (so the satisfied triggers
// fire); the paper averages over 100 such updates.
func (w *Setup) UpdateOneLeaf() error {
	// Leaf ids under top element 0 are 0..(fanout-1) by construction for
	// depth 2; for deeper trees the first leaf block still belongs to top 0.
	return w.updateLeaf(w.rng.Intn(w.Params.Fanout))
}

// UpdateRandomLeaf updates a uniformly random leaf row (for data-size
// experiments where the touched element should be arbitrary).
func (w *Setup) UpdateRandomLeaf() error {
	return w.updateLeaf(w.rng.Intn(w.DB.RowCount(w.LeafTable())))
}

// updateLeaf gives one leaf a new random payload. Never the payload it has:
// a no-op update fires nothing, and callers count notifications per update.
func (w *Setup) updateLeaf(id int) error {
	payload := float64(50 + w.rng.Intn(200))
	_, err := w.Engine.UpdateByPK(w.LeafTable(), []xdm.Value{xdm.Int(int64(id))}, func(r reldb.Row) reldb.Row {
		if r[len(r)-1].AsFloat() == payload {
			payload = 299 - payload // the mirror image in 50..249 differs from every integer
		}
		r[len(r)-1] = xdm.Float(payload)
		return r
	})
	return err
}
