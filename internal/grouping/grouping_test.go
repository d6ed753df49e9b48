package grouping

import (
	"sort"
	"testing"

	"quark/internal/xdm"
	"quark/internal/xqgm"
)

func TestConstRefMustBeBound(t *testing.T) {
	cr := &ConstRef{Idx: 0}
	if _, err := cr.Eval(&xqgm.Env{}); err == nil {
		t.Error("unbound ConstRef must error")
	}
	if cr.String() != "?0" {
		t.Errorf("String = %q", cr.String())
	}
}

func TestBind(t *testing.T) {
	tmpl := &xqgm.Cmp{Op: "=", L: xqgm.Col(3), R: &ConstRef{Idx: 0}}
	bound := Bind(tmpl, []xdm.Value{xdm.Str("CRT 15")})
	v, err := bound.Eval(&xqgm.Env{In: [2][]xdm.Value{{xdm.Null, xdm.Null, xdm.Null, xdm.Str("CRT 15")}, nil}})
	if err != nil || !v.AsBool() {
		t.Errorf("bound template eval = %v, %v", v, err)
	}
	// Out-of-range consts are left unbound (error at eval).
	ub := Bind(tmpl, nil)
	if _, err := ub.Eval(&xqgm.Env{In: [2][]xdm.Value{{xdm.Null, xdm.Null, xdm.Null, xdm.Str("x")}, nil}}); err == nil {
		t.Error("unbindable template should error at eval")
	}
}

func TestGroupMembership(t *testing.T) {
	tmpl := &xqgm.Cmp{Op: "=", L: xqgm.Col(0), R: &ConstRef{Idx: 0}}
	s := NewStore(tmpl, 1)
	t1 := &Member{Name: "t1", Consts: []xdm.Value{xdm.Str("a")}}
	t3 := &Member{Name: "t3", Consts: []xdm.Value{xdm.Str("b"), xdm.Str("an action argument")}}
	for _, m := range []*Member{t1, t3} {
		if err := s.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Add(&Member{Name: "t2"}); err == nil {
		t.Error("a member without the condition's constant was accepted")
	}
	if s.Len() != 2 || len(s.tab.Rows()) != 2 {
		t.Errorf("size=%d rows=%d, want 2 and 2", s.Len(), len(s.tab.Rows()))
	}
	if !s.Remove(t1) || s.Remove(t1) || s.Remove(&Member{Name: "t3", Consts: t3.Consts}) {
		t.Error("Remove removes the member given, once")
	}
	if s.Len() != 1 || len(s.tab.Rows()) != 1 {
		t.Errorf("after remove: size=%d rows=%d, want 1 and 1", s.Len(), len(s.tab.Rows()))
	}
	if got := s.Members(); len(got) != 1 || got[0] != t3 {
		t.Errorf("members = %v", got)
	}
}

// TestConstantsTable: distinct constant combinations share one row with
// merged TrigIDs (the Section 5.1 constants table), and the table follows
// members as they come and go.
func TestConstantsTable(t *testing.T) {
	tmpl := &xqgm.Cmp{Op: "=", L: xqgm.Col(0), R: &ConstRef{Idx: 0}}
	s := NewStore(tmpl, 1)
	ms := map[string]*Member{}
	for _, m := range []struct{ id, c string }{
		{"2", "CRT 15"}, {"1", "CRT 15"}, {"3", "LCD 19"}, {"4", "DVD 7"},
	} {
		ms[m.id] = &Member{Name: m.id, Consts: []xdm.Value{xdm.Str(m.c)}}
		if err := s.Add(ms[m.id]); err != nil {
			t.Fatal(err)
		}
	}
	s.Remove(ms["3"]) // DVD 7's row moves into LCD 19's place
	rows := s.tab.Rows()
	if len(rows) != 2 {
		t.Fatalf("constants rows = %d, want 2 (merged combos)", len(rows))
	}
	found := map[string]string{}
	for _, r := range rows {
		found[r[1].AsString()] = r[0].AsString()
		if got := s.RowMembers(r[0]); len(got) == 0 || got[0].Consts[0].AsString() != r[1].AsString() {
			t.Errorf("row %v resolves to members %v", r, got)
		}
	}
	if found["CRT 15"] != "1,2" || found["DVD 7"] != "4" {
		t.Errorf("TrigIDs = %v (want CRT 15 -> \"1,2\", DVD 7 -> \"4\")", found)
	}
	if got := s.RowMembers(xdm.Str("1,2")); len(got) != 2 || got[0].Name != "1" || got[1].Name != "2" {
		t.Errorf("members of 1,2 = %v", got)
	}
	if s.RowMembers(xdm.Str("3")) != nil {
		t.Error("a removed row still resolves")
	}
	if got := s.Members(); len(got) != 3 || got[0].Name != "2" || got[1].Name != "1" || got[2].Name != "4" {
		t.Errorf("members in join order = %v", got)
	}
}

// TestBuildGroupedPlan: equality conditions become join pairs; the rest
// stays residual (decorrelated Figure 14/15 form), and the plan sees a
// member that joins after it was prepared.
func TestBuildGroupedPlan(t *testing.T) {
	// Condition: col0 = ?0 and col1 < ?1.
	tmpl := &xqgm.Logic{Op: "and", Args: []xqgm.Expr{
		&xqgm.Cmp{Op: "=", L: xqgm.Col(0), R: &ConstRef{Idx: 0}},
		&xqgm.Cmp{Op: "<", L: xqgm.Col(1), R: &ConstRef{Idx: 1}},
	}}
	s := NewStore(tmpl, 2)
	_ = s.Add(&Member{Name: "a", Consts: []xdm.Value{xdm.Str("x"), xdm.Int(10)}})
	_ = s.Add(&Member{Name: "b", Consts: []xdm.Value{xdm.Str("y"), xdm.Int(5)}})

	// A little "affected nodes" relation: (name, value).
	an := xqgm.NewConstants([]string{"name", "value"}, []xqgm.Tuple{
		{xdm.Str("x"), xdm.Int(7)},
		{xdm.Str("y"), xdm.Int(7)},
		{xdm.Str("z"), xdm.Int(1)},
	})
	plan := BuildGroupedPlan(s, tmpl, an)
	if names := plan.OutNames(); len(names) != 5 || names[2] != "TrigIDs" || names[3] != "Const1" {
		t.Errorf("layout: %v", names)
	}
	if err := xqgm.Prepare(plan); err != nil {
		t.Fatal(err)
	}
	eval := func() []string {
		rows, err := xqgm.NewEvalContext(nil, nil).Eval(plan)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, r := range rows {
			out = append(out, r[0].AsString()+":"+r[2].AsString())
		}
		sort.Strings(out)
		return out
	}
	// x matches trigger a only (7 < 10); y does not match b (7 >= 5);
	// z matches nothing.
	if got := eval(); len(got) != 1 || got[0] != "x:a" {
		t.Fatalf("rows = %v, want [x:a]", got)
	}
	_ = s.Add(&Member{Name: "c", Consts: []xdm.Value{xdm.Str("z"), xdm.Int(2)}})
	if got := eval(); len(got) != 2 || got[1] != "z:c" {
		t.Errorf("after c joined: rows = %v, want [x:a z:c]", got)
	}
	// The join found at the plan root carries one equi pair and a residual.
	join := plan
	if join.Type != xqgm.OpJoin || len(join.On) != 1 || join.JoinPred == nil {
		t.Errorf("plan shape: %s", join)
	}
}
