package catalog

import (
	"testing"

	"fudj/internal/core"
	"fudj/internal/types"
)

func testJoin() core.Join {
	return core.Wrap(core.Spec[int64, int64, int64, int64]{
		Name:         "test_join",
		Params:       1,
		NewSummary:   func() int64 { return 0 },
		LocalAggLeft: func(k, s int64) int64 { return s + 1 },
		GlobalAgg:    func(a, b int64) int64 { return a + b },
		Divide:       func(a, b int64, _ []any) (int64, error) { return 1, nil },
		AssignLeft:   func(k, p int64, dst []core.BucketID) []core.BucketID { return append(dst, 0) },
		Verify:       func(_ core.BucketID, l int64, _ core.BucketID, r int64, _ int64) bool { return l == r },
	})
}

func testSchema() *types.Schema {
	return types.NewSchema(types.Field{Name: "id", Kind: types.KindInt64})
}

func TestDatasetLifecycle(t *testing.T) {
	c := New()
	if err := c.CreateDataset("d1", testSchema(), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateDataset("d1", testSchema(), nil); err == nil {
		t.Error("duplicate dataset should error")
	}
	if err := c.CreateDataset("", testSchema(), nil); err == nil {
		t.Error("empty name should error")
	}
	if err := c.CreateDataset("d2", nil, nil); err == nil {
		t.Error("nil schema should error")
	}
	ds, err := c.Dataset("d1")
	if err != nil || ds.Name != "d1" {
		t.Fatalf("Dataset: %v %v", ds, err)
	}
	if _, err := c.Dataset("missing"); err == nil {
		t.Error("missing dataset should error")
	}
	if got := c.Datasets(); len(got) != 1 || got[0] != "d1" {
		t.Errorf("Datasets = %v", got)
	}
	if err := c.DropDataset("d1"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropDataset("d1"); err == nil {
		t.Error("double drop should error")
	}
}

// TestCreateDatasetRejectsRaggedRecords: every record below the
// catalog has its schema's width — the batch codec's precondition, and
// what compiled expressions index by — so a record of another width is
// refused on the way in, naming the dataset, the record and both widths.
func TestCreateDatasetRejectsRaggedRecords(t *testing.T) {
	c := New()
	schema := types.NewSchema(types.Field{Name: "a", Kind: types.KindInt64}, types.Field{Name: "b", Kind: types.KindString})
	for _, tc := range []struct {
		recs []types.Record
		want string
	}{
		{[]types.Record{{types.NewInt64(1)}}, `catalog: dataset "t": record 0 has 1 fields, schema 2`},
		{[]types.Record{
			{types.NewInt64(1), types.NewString("a")},
			{types.NewInt64(2)},
			{types.NewInt64(3), types.NewString("c"), types.NewBool(true)},
		}, `catalog: dataset "t": record 1 has 1 fields, schema 2`},
	} {
		if err := c.CreateDataset("t", schema, tc.recs); err == nil || err.Error() != tc.want {
			t.Fatalf("CreateDataset = %v, want %q", err, tc.want)
		}
		if _, err := c.Dataset("t"); err == nil {
			t.Fatal("a refused dataset was registered")
		}
	}
}

func TestLibraryAndJoinLifecycle(t *testing.T) {
	c := New()
	lib := core.NewLibrary("testlib")
	lib.MustRegister("pkg.TestJoin", testJoin)

	if err := c.InstallLibrary(nil); err == nil {
		t.Error("nil library should error")
	}
	if err := c.InstallLibrary(lib); err != nil {
		t.Fatal(err)
	}
	if err := c.InstallLibrary(lib); err == nil {
		t.Error("duplicate install should error")
	}
	if _, err := c.Library("testlib"); err != nil {
		t.Error(err)
	}
	if _, err := c.Library("nope"); err == nil {
		t.Error("missing library should error")
	}

	// CREATE JOIN with validation.
	params := []string{"a", "b", "t"}
	typs := []string{"int", "int", "int"}
	if err := c.CreateJoin("my_join", params, typs, "pkg.TestJoin", "testlib"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateJoin("my_join", params, typs, "pkg.TestJoin", "testlib"); err == nil {
		t.Error("duplicate join should error")
	}
	if err := c.CreateJoin("j2", []string{"a"}, []string{"int"}, "pkg.TestJoin", "testlib"); err == nil {
		t.Error("single-parameter join should error")
	}
	if err := c.CreateJoin("j3", params, typs[:2], "pkg.TestJoin", "testlib"); err == nil {
		t.Error("mismatched parameter lists should error")
	}
	if err := c.CreateJoin("j4", params, typs, "pkg.TestJoin", "nolib"); err == nil {
		t.Error("unknown library should error")
	}
	if err := c.CreateJoin("j5", params, typs, "pkg.Missing", "testlib"); err == nil {
		t.Error("unknown class should error")
	}
	// Declared extras must match the descriptor (test_join wants 1).
	if err := c.CreateJoin("j6", []string{"a", "b"}, []string{"int", "int"}, "pkg.TestJoin", "testlib"); err == nil {
		t.Error("wrong extra-parameter count should error at DDL time")
	}

	def := c.Join("my_join")
	if def == nil || def.Arity() != 3 || def.Class != "pkg.TestJoin" {
		t.Fatalf("Join = %+v", def)
	}
	if c.Join("missing") != nil {
		t.Error("missing join should be nil")
	}
	if got := c.Joins(); len(got) != 1 || got[0] != "my_join" {
		t.Errorf("Joins = %v", got)
	}
	if err := c.DropJoin("my_join"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropJoin("my_join"); err == nil {
		t.Error("double drop join should error")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New()
	lib := core.NewLibrary("lib")
	lib.MustRegister("pkg.J", testJoin)
	if err := c.InstallLibrary(lib); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			c.Join("j")
			c.Datasets()
			c.Joins()
		}
	}()
	for i := 0; i < 200; i++ {
		_ = c.CreateDataset("d", testSchema(), nil)
		_ = c.DropDataset("d")
	}
	<-done
}
