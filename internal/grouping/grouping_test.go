package grouping

import (
	"sort"
	"strings"
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
	t1, err := s.Add("t1", []xdm.Value{xdm.Str("a")})
	if err != nil {
		t.Fatal(err)
	}
	t3, err := s.Add("t3", []xdm.Value{xdm.Str("b"), xdm.Str("an action argument")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add("t2", nil); err == nil {
		t.Error("a member without the condition's constant was accepted")
	}
	if s.Len() != 2 || len(s.tab.Rows()) != 2 {
		t.Errorf("size=%d rows=%d, want 2 and 2", s.Len(), len(s.tab.Rows()))
	}
	if got := s.AppendConsts(nil, t3); len(got) != 2 || got[0].AsString() != "b" || got[1].AsString() != "an action argument" {
		t.Errorf("t3's constants = %v", got)
	}
	if !s.Remove(t1) || s.Remove(t1) || s.Remove(-1) || s.Remove(7) {
		t.Error("Remove removes the member given, once")
	}
	if s.Len() != 1 || len(s.tab.Rows()) != 1 {
		t.Errorf("after remove: size=%d rows=%d, want 1 and 1", s.Len(), len(s.tab.Rows()))
	}
	if got := s.Members(); len(got) != 1 || got[0] != t3 || s.Name(t3) != "t3" {
		t.Errorf("members = %v", got)
	}
	// A freed handle is reused, and the new member has no constants of t3's.
	t4, _ := s.Add("t4", []xdm.Value{xdm.Str("b")})
	if t4 != t1 {
		t.Errorf("t4 got handle %d, want t1's freed %d", t4, t1)
	}
	if got := s.AppendConsts(nil, t4); len(got) != 1 {
		t.Errorf("t4's constants = %v", got)
	}
}

// TestConstantsTable: distinct constant combinations share one row with
// merged TrigIDs (the Section 5.1 constants table), and the table follows
// members as they come and go.
func TestConstantsTable(t *testing.T) {
	tmpl := &xqgm.Cmp{Op: "=", L: xqgm.Col(0), R: &ConstRef{Idx: 0}}
	s := NewStore(tmpl, 1)
	ms := map[string]int32{}
	for _, m := range []struct{ id, c string }{
		{"2", "CRT 15"}, {"1", "CRT 15"}, {"3", "LCD 19"}, {"4", "DVD 7"},
	} {
		h, err := s.Add(m.id, []xdm.Value{xdm.Str(m.c)})
		if err != nil {
			t.Fatal(err)
		}
		ms[m.id] = h
	}
	s.Remove(ms["3"]) // DVD 7's row moves into LCD 19's place
	rows := s.tab.Rows()
	if len(rows) != 2 {
		t.Fatalf("constants rows = %d, want 2 (merged combos)", len(rows))
	}
	found := map[string]string{}
	for _, r := range rows {
		found[r[1].AsString()] = s.Label(r[0])
		if got := s.RowMembers(r[0]); len(got) == 0 || s.AppendConsts(nil, got[0])[0].AsString() != r[1].AsString() {
			t.Errorf("row %v resolves to members %v", r, got)
		}
	}
	if found["CRT 15"] != "1,2" || found["DVD 7"] != "4" {
		t.Errorf("TrigIDs = %v (want CRT 15 -> \"1,2\", DVD 7 -> \"4\")", found)
	}
	// A listing renders TrigIDs, and orders rows by their constants' keys,
	// which length-prefix each value.
	var listed []string
	for _, r := range s.tab.Listing() {
		listed = append(listed, r[0].AsString()+"="+r[1].AsString())
	}
	if got := strings.Join(listed, " "); got != "4=DVD 7 1,2=CRT 15" {
		t.Errorf("listing = %s", got)
	}
	crt := s.RowMembers(rows[0][0])
	if rows[0][1].AsString() != "CRT 15" {
		crt = s.RowMembers(rows[1][0])
	}
	if len(crt) != 2 || s.Name(crt[0]) != "1" || s.Name(crt[1]) != "2" {
		t.Errorf("members of 1,2 = %v", crt)
	}
	if got := s.Members(); len(got) != 3 || s.Name(got[0]) != "2" || s.Name(got[1]) != "1" || s.Name(got[2]) != "4" {
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
	_, _ = s.Add("a", []xdm.Value{xdm.Str("x"), xdm.Int(10)})
	_, _ = s.Add("b", []xdm.Value{xdm.Str("y"), xdm.Int(5)})

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
			out = append(out, r[0].AsString()+":"+s.Label(r[2]))
		}
		sort.Strings(out)
		return out
	}
	// x matches trigger a only (7 < 10); y does not match b (7 >= 5);
	// z matches nothing.
	if got := eval(); len(got) != 1 || got[0] != "x:a" {
		t.Fatalf("rows = %v, want [x:a]", got)
	}
	_, _ = s.Add("c", []xdm.Value{xdm.Str("z"), xdm.Int(2)})
	if got := eval(); len(got) != 2 || got[1] != "z:c" {
		t.Errorf("after c joined: rows = %v, want [x:a z:c]", got)
	}
	// The join found at the plan root carries one equi pair and a residual.
	join := plan
	if join.Type != xqgm.OpJoin || len(join.On) != 1 || join.JoinPred == nil {
		t.Errorf("plan shape: %s", join)
	}
}
