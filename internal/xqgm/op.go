// Package xqgm implements the XML Query Graph Model from XPERANTO/Quark
// (paper Section 2.1, Table 1): the operator algebra used to represent XML
// views, trigger paths/conditions/actions, affected-key graphs, and the
// final relational trigger bodies. Operators produce tuples whose column
// values are XML nodes/values (package xdm); XML construction functions are
// embedded in Project operators and in aggXMLFrag aggregates.
//
// Canonical keys (paper Definition 1, Table 3 / Appendix A) are derived
// bottom-up by DeriveKeys and drive both trigger-specifiability (Theorem 1)
// and the affected-key algorithm (Figure 8).
package xqgm

import (
	"fmt"
	"strings"

	"quark/internal/schema"
)

// OpType identifies an operator (paper Table 1, plus the Constants table
// from Section 5.1 and OrderBy for the sorted outer union).
type OpType uint8

// Operator types.
const (
	OpTable OpType = iota
	OpSelect
	OpProject
	OpJoin
	OpGroupBy
	OpUnion
	OpUnnest
	OpConstants
	OpOrderBy
)

func (t OpType) String() string {
	switch t {
	case OpTable:
		return "Table"
	case OpSelect:
		return "Select"
	case OpProject:
		return "Project"
	case OpJoin:
		return "Join"
	case OpGroupBy:
		return "GroupBy"
	case OpUnion:
		return "Union"
	case OpUnnest:
		return "Unnest"
	case OpConstants:
		return "Constants"
	case OpOrderBy:
		return "OrderBy"
	default:
		return fmt.Sprintf("Op(%d)", uint8(t))
	}
}

// TableSource selects which version of a base table a Table operator reads
// (paper Section 4.2): the post-update table B, the transition tables ΔB /
// ∇B, their pruned variants (Definition 8), or the reconstructed pre-update
// table B_old = (B EXCEPT ΔB) UNION ∇B.
type TableSource uint8

// Table sources.
const (
	SrcBase TableSource = iota
	SrcDelta
	SrcNabla
	SrcDeltaPruned
	SrcNablaPruned
	SrcOld
)

func (s TableSource) String() string {
	switch s {
	case SrcBase:
		return ""
	case SrcDelta:
		return "Δ"
	case SrcNabla:
		return "∇"
	case SrcDeltaPruned:
		return "Δ'"
	case SrcNablaPruned:
		return "∇'"
	case SrcOld:
		return "old"
	default:
		return "?"
	}
}

// JoinKind selects join semantics. Anti joins pad the absent side with
// nulls in the output (used by CreateANGraph for INSERT/DELETE events).
type JoinKind uint8

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeftOuter
	JoinLeftAnti  // left rows with no right match; right columns null
	JoinRightAnti // right rows with no left match; left columns null
)

func (k JoinKind) String() string {
	switch k {
	case JoinInner:
		return "Join"
	case JoinLeftOuter:
		return "LeftOuterJoin"
	case JoinLeftAnti:
		return "LeftAntiJoin"
	case JoinRightAnti:
		return "RightAntiJoin"
	default:
		return "Join?"
	}
}

// JoinEq is one equi-join column pair: column L of the LEFT input equals
// column R of the RIGHT input (both in the respective input's own output
// positions, not join-output positions).
type JoinEq struct {
	L, R int
}

// Proj is one output column of a Project operator.
type Proj struct {
	Name string
	E    Expr
}

// AggFunc is an aggregate function for GroupBy operators. AggXMLFrag is the
// paper's aggXMLFrag(): it concatenates XML fragments in a group into a
// sequence.
type AggFunc uint8

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggMin
	AggMax
	AggAvg
	AggXMLFrag
)

func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	case AggXMLFrag:
		return "aggXMLFrag"
	default:
		return "agg?"
	}
}

// Agg is one aggregate column of a GroupBy. Arg nil means count(*).
type Agg struct {
	Name string
	Func AggFunc
	Arg  Expr
}

// OrderCol is one sort key of an OrderBy operator.
type OrderCol struct {
	Col  int
	Desc bool
}

// Operator is one node of an XQGM graph. Graphs are DAGs: operators may be
// shared between parents. The exported fields are populated according to
// Type; see the builder functions.
type Operator struct {
	Type   OpType
	Inputs []*Operator

	// OpTable
	Table   string
	Source  TableSource
	TablePK []int // primary-key column indexes (filled by NewTable)
	Width   int   // number of columns
	Names   []string

	// OpConstants
	Consts *ConstTable

	// OpSelect / extra join predicate
	Pred Expr

	// OpProject
	Projs []Proj

	// OpJoin
	JoinKind JoinKind
	On       []JoinEq
	JoinPred Expr // optional non-equi residual predicate

	// OpGroupBy
	GroupCols []int
	Aggs      []Agg

	// OpUnion
	Distinct bool

	// OpOrderBy
	OrderCols []OrderCol

	// OpUnnest
	UnnestCol int

	// Key holds the output-column indexes of the canonical key, derived by
	// DeriveKeys. Nil means no canonical key (e.g. below an Unnest).
	Key []int

	// prep is the plan Prepare built for the graph rooted here; nil until
	// then. Nothing else on an Operator changes once its graph is built.
	prep *node
}

// NewTable builds a Table operator over a base table described by def.
func NewTable(def *schema.Table, src TableSource) *Operator {
	return &Operator{
		Type:    OpTable,
		Table:   def.Name,
		Source:  src,
		TablePK: def.PKIndexes(),
		Width:   len(def.Columns),
		Names:   def.ColNames(),
	}
}

// NewConstants builds a Constants operator with the given column names and
// literal rows.
func NewConstants(names []string, rows []Tuple) *Operator {
	return NewConstantsOver(names, &ConstTable{rows: rows})
}

// NewConstantsOver builds a Constants operator reading t, whose rows have
// one column per name.
func NewConstantsOver(names []string, t *ConstTable) *Operator {
	return &Operator{Type: OpConstants, Names: names, Width: len(names), Consts: t}
}

// NewSelect builds a Select restricting in by pred; output schema = input.
func NewSelect(in *Operator, pred Expr) *Operator {
	return &Operator{Type: OpSelect, Inputs: []*Operator{in}, Pred: pred}
}

// NewProject builds a Project computing projs over in.
func NewProject(in *Operator, projs ...Proj) *Operator {
	return &Operator{Type: OpProject, Inputs: []*Operator{in}, Projs: projs}
}

// NewJoin builds a Join of kind over (l, r) with equi-join pairs on and an
// optional residual predicate.
func NewJoin(kind JoinKind, l, r *Operator, on []JoinEq, residual Expr) *Operator {
	return &Operator{Type: OpJoin, JoinKind: kind, Inputs: []*Operator{l, r}, On: on, JoinPred: residual}
}

// NewGroupBy builds a GroupBy over in, grouping on the given input columns
// and computing aggs.
func NewGroupBy(in *Operator, groupCols []int, aggs ...Agg) *Operator {
	return &Operator{Type: OpGroupBy, Inputs: []*Operator{in}, GroupCols: groupCols, Aggs: aggs}
}

// NewUnion builds a Union of the inputs; distinct selects set semantics.
// All inputs must have the same width.
func NewUnion(distinct bool, ins ...*Operator) *Operator {
	return &Operator{Type: OpUnion, Distinct: distinct, Inputs: ins}
}

// NewOrderBy builds an OrderBy over in.
func NewOrderBy(in *Operator, cols ...OrderCol) *Operator {
	return &Operator{Type: OpOrderBy, Inputs: []*Operator{in}, OrderCols: cols}
}

// NewUnnest builds an Unnest over in, expanding the sequence in column col
// into one row per item.
func NewUnnest(in *Operator, col int) *Operator {
	return &Operator{Type: OpUnnest, Inputs: []*Operator{in}, UnnestCol: col}
}

// OutWidth returns the number of output columns.
func (o *Operator) OutWidth() int {
	switch o.Type {
	case OpTable, OpConstants:
		return o.Width
	case OpSelect, OpOrderBy, OpUnnest:
		return o.Inputs[0].OutWidth()
	case OpProject:
		return len(o.Projs)
	case OpJoin:
		return o.Inputs[0].OutWidth() + o.Inputs[1].OutWidth()
	case OpGroupBy:
		return len(o.GroupCols) + len(o.Aggs)
	case OpUnion:
		return o.Inputs[0].OutWidth()
	default:
		return 0
	}
}

// OutNames returns the output column names (synthesized where inputs do not
// carry names).
func (o *Operator) OutNames() []string {
	switch o.Type {
	case OpTable, OpConstants:
		return o.Names
	case OpSelect, OpOrderBy, OpUnnest:
		return o.Inputs[0].OutNames()
	case OpProject:
		out := make([]string, len(o.Projs))
		for i, p := range o.Projs {
			out[i] = p.Name
		}
		return out
	case OpJoin:
		l := o.Inputs[0].OutNames()
		r := o.Inputs[1].OutNames()
		out := make([]string, 0, len(l)+len(r))
		out = append(out, l...)
		out = append(out, r...)
		return out
	case OpGroupBy:
		in := o.Inputs[0].OutNames()
		out := make([]string, 0, len(o.GroupCols)+len(o.Aggs))
		for _, c := range o.GroupCols {
			out = append(out, in[c])
		}
		for _, a := range o.Aggs {
			out = append(out, a.Name)
		}
		return out
	case OpUnion:
		return o.Inputs[0].OutNames()
	default:
		return nil
	}
}

// ColIndex returns the output position of the named column, or -1.
func (o *Operator) ColIndex(name string) int {
	for i, n := range o.OutNames() {
		if n == name {
			return i
		}
	}
	return -1
}

// DeriveKeys computes canonical keys bottom-up per paper Table 3 and stores
// them in Key on every operator in the graph. It returns the root's key
// (nil when the root has no canonical key). An operator below an Unnest, or
// a Project that drops its input's key columns, has no canonical key.
func DeriveKeys(o *Operator) []int {
	return deriveKeys(o, map[*Operator][]int{})
}

func deriveKeys(o *Operator, memo map[*Operator][]int) []int {
	if k, ok := memo[o]; ok {
		return k
	}
	// Mark in-progress to guard against cycles (graphs are DAGs, but be
	// defensive); a cycle yields no key.
	memo[o] = nil
	var key []int
	switch o.Type {
	case OpTable:
		if len(o.TablePK) > 0 {
			key = append([]int(nil), o.TablePK...)
		}
	case OpConstants:
		// Constants rows are unique by construction; all columns form a key.
		key = make([]int, o.Width)
		for i := range key {
			key[i] = i
		}
	case OpSelect, OpOrderBy:
		key = deriveKeys(o.Inputs[0], memo)
	case OpProject:
		ik := deriveKeys(o.Inputs[0], memo)
		if ik != nil {
			key = mapKeyThroughProjs(ik, o.Projs)
		}
	case OpJoin:
		lk := deriveKeys(o.Inputs[0], memo)
		rk := deriveKeys(o.Inputs[1], memo)
		switch o.JoinKind {
		case JoinLeftOuter:
			// When the join columns cover the right input's key, each left
			// row matches at most one right row (a functional join), so the
			// left key alone identifies output tuples. This is the shape
			// the compiler produces when joining grouped child fragments
			// back to their parents.
			if lk != nil && rk != nil && coveredBy(rk, o.On) {
				key = append([]int(nil), lk...)
				break
			}
			if lk != nil && rk != nil {
				lw := o.Inputs[0].OutWidth()
				key = append([]int(nil), lk...)
				for _, c := range rk {
					key = append(key, lw+c)
				}
			}
		case JoinLeftAnti:
			// Only left rows survive (at most once each): left key.
			key = append([]int(nil), lk...)
			if lk == nil {
				key = nil
			}
		case JoinRightAnti:
			if rk != nil {
				lw := o.Inputs[0].OutWidth()
				key = make([]int, len(rk))
				for i, c := range rk {
					key[i] = lw + c
				}
			}
		default:
			if lk != nil && rk != nil {
				lw := o.Inputs[0].OutWidth()
				// Functional-join refinements: when one side's key is
				// covered by the join columns, each row of the other side
				// matches at most one row of it, so the other side's key
				// alone identifies output tuples.
				switch {
				case coveredBy(rk, o.On):
					key = append([]int(nil), lk...)
				case coveredByLeft(lk, o.On):
					key = make([]int, len(rk))
					for i, c := range rk {
						key[i] = lw + c
					}
				default:
					key = append([]int(nil), lk...)
					for _, c := range rk {
						key = append(key, lw+c)
					}
					key = reduceJoinKey(key, o.On, lw)
				}
			}
		}
	case OpGroupBy:
		// The grouping columns are the key (they occupy the leading output
		// positions). Requires the input to have a key at all, because an
		// unkeyed input makes group membership ill-defined for triggers.
		if deriveKeys(o.Inputs[0], memo) != nil || o.Inputs[0].Type == OpTable {
			key = make([]int, len(o.GroupCols))
			for i := range o.GroupCols {
				key[i] = i
			}
		}
	case OpUnion:
		// Positional mapping M: input column i maps to output column i, so
		// the output key is the union of input key positions (Table 3).
		// Duplicate-preserving unions (UNION ALL) have no canonical key.
		if o.Distinct {
			set := map[int]bool{}
			ok := true
			for _, in := range o.Inputs {
				ik := deriveKeys(in, memo)
				if ik == nil {
					ok = false
					break
				}
				for _, c := range ik {
					set[c] = true
				}
			}
			if ok {
				for i := 0; i < o.OutWidth(); i++ {
					if set[i] {
						key = append(key, i)
					}
				}
			}
		}
	case OpUnnest:
		// No canonical key is derivable for Unnest (Appendix A); Theorem 1
		// removes Unnest operators by view composition.
		key = nil
	}
	o.Key = key
	memo[o] = key
	return key
}

// reduceJoinKey drops redundant key columns: when an equi-join pair has
// both of its columns in the key, the left one is implied by the right and
// can be removed (equivalence-class minimization). This keeps canonical
// keys small for PK/FK join chains (e.g. product ⋈ vendor on pid needs only
// the vendor key).
func reduceJoinKey(key []int, on []JoinEq, lw int) []int {
	inKey := map[int]bool{}
	for _, k := range key {
		inKey[k] = true
	}
	drop := map[int]bool{}
	for _, eq := range on {
		l, r := eq.L, lw+eq.R
		if inKey[l] && inKey[r] && !drop[r] {
			drop[l] = true
		}
	}
	if len(drop) == 0 {
		return key
	}
	out := key[:0]
	for _, k := range key {
		if !drop[k] {
			out = append(out, k)
		}
	}
	return out
}

// coveredBy reports whether every column of key appears as a right-side
// join column.
func coveredBy(key []int, on []JoinEq) bool {
	if len(key) == 0 {
		return true
	}
	for _, k := range key {
		found := false
		for _, eq := range on {
			if eq.R == k {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// coveredByLeft is coveredBy for the left side's join columns.
func coveredByLeft(key []int, on []JoinEq) bool {
	if len(key) == 0 {
		return true
	}
	for _, k := range key {
		found := false
		for _, eq := range on {
			if eq.L == k {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func mapKeyThroughProjs(inKey []int, projs []Proj) []int {
	out := make([]int, 0, len(inKey))
	for _, kc := range inKey {
		found := -1
		for pi, p := range projs {
			if cr, ok := p.E.(*ColRef); ok && cr.Input == 0 && cr.Col == kc {
				found = pi
				break
			}
		}
		if found < 0 {
			return nil
		}
		out = append(out, found)
	}
	return out
}

// TriggerSpecifiable reports whether every operator in the graph has a
// canonical key (paper Definition 4). DeriveKeys must run first or is run
// implicitly here.
func TriggerSpecifiable(root *Operator) bool {
	DeriveKeys(root)
	ok := true
	Walk(root, func(o *Operator) {
		if o.Key == nil {
			ok = false
		}
	})
	return ok
}

// Walk visits every operator in the DAG exactly once, children first.
func Walk(root *Operator, fn func(*Operator)) {
	seen := map[*Operator]bool{}
	var rec func(o *Operator)
	rec = func(o *Operator) {
		if o == nil || seen[o] {
			return
		}
		seen[o] = true
		for _, in := range o.Inputs {
			rec(in)
		}
		fn(o)
	}
	rec(root)
}

// Tables returns the distinct base-table names referenced by the graph.
func Tables(root *Operator) []string {
	seen := map[string]bool{}
	var out []string
	Walk(root, func(o *Operator) {
		if o.Type == OpTable && !seen[o.Table] {
			seen[o.Table] = true
			out = append(out, o.Table)
		}
	})
	return out
}

// String renders the graph as an indented tree for diagnostics.
func (o *Operator) String() string {
	var sb strings.Builder
	o.dump(&sb, 0, map[*Operator]int{}, new(int))
	return sb.String()
}

func (o *Operator) dump(sb *strings.Builder, depth int, ids map[*Operator]int, next *int) {
	pad := strings.Repeat("  ", depth)
	if id, ok := ids[o]; ok {
		fmt.Fprintf(sb, "%s(shared #%d)\n", pad, id)
		return
	}
	*next++
	ids[o] = *next
	fmt.Fprintf(sb, "%s#%d %s", pad, *next, o.Type)
	switch o.Type {
	case OpTable:
		fmt.Fprintf(sb, "(%s%s)", o.Source, o.Table)
	case OpSelect:
		fmt.Fprintf(sb, "[%s]", o.Pred)
	case OpProject:
		names := make([]string, len(o.Projs))
		for i, p := range o.Projs {
			names[i] = fmt.Sprintf("%s=%s", p.Name, p.E)
		}
		fmt.Fprintf(sb, "[%s]", strings.Join(names, ", "))
	case OpJoin:
		fmt.Fprintf(sb, "{%s on %v}", o.JoinKind, o.On)
	case OpGroupBy:
		fmt.Fprintf(sb, "{by %v aggs %d}", o.GroupCols, len(o.Aggs))
	case OpUnion:
		if o.Distinct {
			sb.WriteString("{distinct}")
		} else {
			sb.WriteString("{all}")
		}
	case OpConstants:
		fmt.Fprintf(sb, "{%d rows}", len(o.Consts.rows))
	}
	if o.Key != nil {
		fmt.Fprintf(sb, " key=%v", o.Key)
	}
	sb.WriteByte('\n')
	for _, in := range o.Inputs {
		in.dump(sb, depth+1, ids, next)
	}
}
