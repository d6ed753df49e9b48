package schema

import (
	"slices"
	"strings"
	"testing"

	"quark/internal/xdm"
)

func TestTableLookup(t *testing.T) {
	s := ProductVendor()
	if got := s.TableNames(); !slices.Equal(got, []string{"product", "vendor"}) {
		t.Fatalf("TableNames = %v, want declaration order", got)
	}
	s.TableNames()[0] = "changed"
	if s.TableNames()[0] != "product" {
		t.Error("TableNames handed out the schema's own slice")
	}
	for i, tb := range s.Tables() {
		if got, ok := s.Table(tb.Name); !ok || got != tb || tb.Name != s.TableNames()[i] {
			t.Errorf("Table(%q) = %v, %t; Tables()[%d] = %v", tb.Name, got, ok, i, tb)
		}
	}
	if tb, ok := s.Table("nosuch"); ok || tb != nil {
		t.Errorf("Table(nosuch) = %v, %t", tb, ok)
	}
}

func TestKeyPositions(t *testing.T) {
	s := ProductVendor()
	vendor, _ := s.Table("vendor")
	product, _ := s.Table("product")
	if got := vendor.PKIndexes(); !slices.Equal(got, []int{0, 1}) {
		t.Errorf("vendor PKIndexes = %v, want [0 1]", got)
	}
	if got := product.PKIndexes(); !slices.Equal(got, []int{0}) {
		t.Errorf("product PKIndexes = %v, want [0]", got)
	}
	// Key order, not column order.
	swapped := &Table{Name: "t", Columns: vendor.Columns, PrimaryKey: []string{"pid", "vid"}}
	if got := swapped.PKIndexes(); !slices.Equal(got, []int{1, 0}) {
		t.Errorf("PKIndexes with the key declared pid, vid = %v, want [1 0]", got)
	}
	keyless := &Table{Name: "t", Columns: vendor.Columns}
	if keyless.HasPrimaryKey() || len(keyless.PKIndexes()) != 0 || !vendor.HasPrimaryKey() {
		t.Error("HasPrimaryKey / PKIndexes disagree with the declared keys")
	}
	fk := vendor.ForeignKeys[0]
	if got := vendor.ColIndex(fk.Columns[0]); got != 1 {
		t.Errorf("vendor's foreign-key column is at %d, want 1", got)
	}
	ref, _ := s.Table(fk.RefTable)
	if got := ref.ColIndex(fk.RefColumns[0]); got != 0 {
		t.Errorf("the referenced column is at %d, want 0", got)
	}
	if got := vendor.ColIndex("nosuch"); got != -1 {
		t.Errorf("ColIndex(nosuch) = %d, want -1", got)
	}
	if got := vendor.ColNames(); !slices.Equal(got, []string{"vid", "pid", "price"}) {
		t.Errorf("ColNames = %v", got)
	}
}

// MustAddTable panics with the error AddTable would return; each invalid
// definition names what is wrong with it.
func TestMustAddTableRejects(t *testing.T) {
	cols := []Column{{Name: "id", Type: TInt}, {Name: "parent", Type: TInt}}
	for _, c := range []struct {
		table *Table
		want  string
	}{
		{&Table{Columns: cols}, "empty name"},
		{&Table{Name: "t", Columns: []Column{{Type: TInt}}}, "unnamed column"},
		{&Table{Name: "t", Columns: []Column{{Name: "id"}, {Name: "id"}}}, "duplicate column id"},
		{&Table{Name: "t", Columns: cols, PrimaryKey: []string{"key"}}, "primary key references unknown column key"},
		{&Table{Name: "t", Columns: cols, ForeignKeys: []ForeignKey{{Columns: []string{"parent"}, RefTable: "product"}}}, "foreign key arity mismatch"},
		{&Table{Name: "t", Columns: cols, ForeignKeys: []ForeignKey{{Columns: []string{"up"}, RefTable: "product", RefColumns: []string{"pid"}}}}, "foreign key references unknown column up"},
		{&Table{Name: "t", Columns: cols, ForeignKeys: []ForeignKey{{Columns: []string{"parent"}, RefTable: "nosuch", RefColumns: []string{"id"}}}}, "unknown table nosuch"},
		{&Table{Name: "t", Columns: cols, ForeignKeys: []ForeignKey{{Columns: []string{"parent"}, RefTable: "product", RefColumns: []string{"id"}}}}, "unknown column product.id"},
		{&Table{Name: "product", Columns: cols}, "duplicate table product"},
	} {
		s := ProductVendor()
		got := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg = r.(error).Error()
				}
			}()
			s.MustAddTable(c.table)
			return ""
		}()
		if !strings.Contains(got, c.want) {
			t.Errorf("MustAddTable(%+v) panicked with %q, want %q", c.table, got, c.want)
		}
		if len(s.Tables()) != 2 {
			t.Errorf("a rejected table was registered: %v", s.TableNames())
		}
	}
	// A table may reference itself before it is registered.
	s := New()
	s.MustAddTable(&Table{Name: "node", Columns: cols, PrimaryKey: []string{"id"},
		ForeignKeys: []ForeignKey{{Columns: []string{"parent"}, RefTable: "node", RefColumns: []string{"id"}}}})
	if _, ok := s.Table("node"); !ok {
		t.Error("a self-referencing table was not registered")
	}
}

func TestColumnTypes(t *testing.T) {
	for _, c := range []struct {
		typ  ColType
		v    xdm.Value
		want bool
	}{
		{TInt, xdm.Int(1), true},
		{TFloat, xdm.Int(1), true},
		{TInt, xdm.Float(1.5), false},
		{TFloat, xdm.Float(1.5), true},
		{TString, xdm.Str("x"), true},
		{TInt, xdm.Str("1"), false},
		{TBool, xdm.Bool(true), true},
		{TString, xdm.Null, true},
	} {
		if got := c.typ.Accepts(c.v); got != c.want {
			t.Errorf("%s accepts %s = %t, want %t", c.typ, c.v, got, c.want)
		}
	}
	ddl := ProductVendor().String()
	for _, want := range []string{
		"CREATE TABLE product (pid VARCHAR, pname VARCHAR, mfr VARCHAR, PRIMARY KEY (pid));",
		"CREATE TABLE vendor (vid VARCHAR, pid VARCHAR, price DECIMAL, PRIMARY KEY (vid, pid), FOREIGN KEY (pid) REFERENCES product (pid));",
	} {
		if !strings.Contains(ddl, want) {
			t.Errorf("DDL misses %q:\n%s", want, ddl)
		}
	}
}
