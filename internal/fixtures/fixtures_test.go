package fixtures

import (
	"testing"

	"quark/internal/reldb"
	"quark/internal/xdm"
	"quark/internal/xqgm"
)

// The running example's schema loads with the Figure 2 rows, and every row
// satisfies the foreign keys its table declares: each referencing row's
// columns name a row of the referenced table.
func TestPaperDataSatisfiesItsForeignKeys(t *testing.T) {
	db, err := OpenPaperDB()
	if err != nil {
		t.Fatal(err)
	}
	if p, v := db.RowCount("product"), db.RowCount("vendor"); p != 3 || v != 7 {
		t.Fatalf("product has %d rows, vendor %d; Figure 2 has 3 and 7", p, v)
	}
	fks := 0
	for _, tab := range db.Schema().Tables() {
		for _, fk := range tab.ForeignKeys {
			fks++
			ref, ok := db.Schema().Table(fk.RefTable)
			if !ok {
				t.Fatalf("%s references unknown table %s", tab.Name, fk.RefTable)
			}
			err := db.Scan(tab.Name, func(r reldb.Row) bool {
				found := false
				err := db.Scan(ref.Name, func(rr reldb.Row) bool {
					found = true
					for i, c := range fk.Columns {
						if !xdm.Equal(r[tab.ColIndex(c)], rr[ref.ColIndex(fk.RefColumns[i])]) {
							found = false
							break
						}
					}
					return !found
				})
				if err != nil {
					t.Fatal(err)
				}
				if !found {
					t.Errorf("%s row %v references no %s row by %v", tab.Name, r, ref.Name, fk.Columns)
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if fks == 0 {
		t.Error("the schema declares no foreign key: vendor.pid references product")
	}
}

// The catalog view's graph (Figure 5) prepares, and evaluates over the
// Figure 2 rows to Figure 4's catalog: the products with at least two
// vendors, each with its vendors in the order the join produced them.
func TestCatalogViewCompiles(t *testing.T) {
	db, err := OpenPaperDB()
	if err != nil {
		t.Fatal(err)
	}
	v := BuildCatalogView(db.Schema(), 2)
	if err := xqgm.Prepare(v.Root); err != nil {
		t.Fatal(err)
	}
	rows, err := xqgm.NewEvalContext(db, nil).Eval(v.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("the view produced %d rows, want one <catalog>", len(rows))
	}
	catalog := rows[0][CatalogNodeCol].AsNode()
	if catalog == nil || catalog.Name != "catalog" {
		t.Fatalf("the view's node is %v, want <catalog>", rows[0][CatalogNodeCol])
	}
	names := map[string]int{}
	for _, p := range catalog.Children() {
		if p.Name != "product" || len(p.Attrs()) != 1 {
			t.Fatalf("catalog child %s, want <product name=...>", p.Serialize(false))
		}
		names[p.Attrs()[0].Text()] = len(p.Children())
	}
	// CRT 15 has P1's three vendors and P3's two; LCD 19 has P2's two.
	if len(names) != 2 || names["CRT 15"] != 5 || names["LCD 19"] != 2 {
		t.Errorf("catalog products %v, want CRT 15 with 5 vendors and LCD 19 with 2", names)
	}
}
