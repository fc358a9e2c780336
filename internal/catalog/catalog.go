// Package catalog is the engine's metadata store: datasets, installed
// FUDJ libraries, and the join functions created from them via
// CREATE JOIN. It is the component the optimizer consults to detect
// FUDJ predicates by function signature (§VI-C).
package catalog

import (
	"fmt"
	"sort"
	"sync"

	"fudj/internal/core"
	"fudj/internal/types"
)

// Dataset is a stored, named record collection.
type Dataset struct {
	Name    string
	Schema  *types.Schema
	Records []types.Record
}

// JoinDef is one installed join function, created by CREATE JOIN. The
// optimizer matches query predicates against Name and arity.
type JoinDef struct {
	Name      string
	ParamName []string // declared parameter names
	ParamType []string // declared parameter type names
	Class     string
	Library   string
	New       core.Constructor
	// Desc is the class's descriptor, read once at CREATE JOIN: the
	// planner, EXPLAIN and the executor read it here rather than
	// building a join to ask.
	Desc core.Descriptor
}

// Arity returns the total parameter count (keys + extra parameters).
func (j *JoinDef) Arity() int { return len(j.ParamName) }

// Instance builds the fresh join one query runs. The constructor is
// library code, so a panic in it becomes a *core.UDFError of phase
// "create" instead of escaping to the caller.
func (j *JoinDef) Instance() (join core.Join, err error) {
	defer core.CatchPanic(j.Name, "create", -1, nil, &err)
	return j.New(), nil
}

// Catalog stores all metadata. It is safe for concurrent use.
type Catalog struct {
	mu        sync.RWMutex
	datasets  map[string]*Dataset
	libraries map[string]*core.Library
	joins     map[string]*JoinDef
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		datasets:  make(map[string]*Dataset),
		libraries: make(map[string]*core.Library),
		joins:     make(map[string]*JoinDef),
	}
}

// CreateDataset registers a dataset. Replacing an existing dataset is
// an error; drop it first.
func (c *Catalog) CreateDataset(name string, schema *types.Schema, recs []types.Record) error {
	if name == "" || schema == nil {
		return fmt.Errorf("catalog: dataset needs a name and a schema")
	}
	if err := schema.CheckWidths(recs); err != nil {
		return fmt.Errorf("catalog: dataset %q: %w", name, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.datasets[name]; dup {
		return fmt.Errorf("catalog: dataset %q already exists", name)
	}
	c.datasets[name] = &Dataset{Name: name, Schema: schema, Records: recs}
	return nil
}

// DropDataset removes a dataset.
func (c *Catalog) DropDataset(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.datasets[name]; !ok {
		return fmt.Errorf("catalog: no dataset %q", name)
	}
	delete(c.datasets, name)
	return nil
}

// Dataset looks up a dataset by name.
func (c *Catalog) Dataset(name string) (*Dataset, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ds, ok := c.datasets[name]
	if !ok {
		return nil, fmt.Errorf("catalog: no dataset %q", name)
	}
	return ds, nil
}

// Datasets returns the sorted dataset names.
func (c *Catalog) Datasets() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.datasets))
	for n := range c.datasets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// InstallLibrary uploads a join library (the analogue of shipping a
// JAR to the cluster).
func (c *Catalog) InstallLibrary(lib *core.Library) error {
	if lib == nil {
		return fmt.Errorf("catalog: nil library")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.libraries[lib.Name()]; dup {
		return fmt.Errorf("catalog: library %q already installed", lib.Name())
	}
	c.libraries[lib.Name()] = lib
	return nil
}

// Library looks up an installed library.
func (c *Catalog) Library(name string) (*core.Library, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	lib, ok := c.libraries[name]
	if !ok {
		return nil, fmt.Errorf("catalog: no library %q (install it before CREATE JOIN)", name)
	}
	return lib, nil
}

// CreateJoin registers a join function backed by a library class —
// the semantic action of the CREATE JOIN statement. The class must
// resolve in the named library at creation time, so a bad signature
// fails at DDL time rather than mid-query.
func (c *Catalog) CreateJoin(name string, paramNames, paramTypes []string, class, library string) error {
	if len(paramNames) < 2 {
		return fmt.Errorf("catalog: join %q needs at least two key parameters", name)
	}
	if len(paramNames) != len(paramTypes) {
		return fmt.Errorf("catalog: join %q has mismatched parameter lists", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.joins[name]; dup {
		return fmt.Errorf("catalog: join %q already exists", name)
	}
	lib, ok := c.libraries[library]
	if !ok {
		return fmt.Errorf("catalog: no library %q (install it before CREATE JOIN)", library)
	}
	ctor, err := lib.Resolve(class)
	if err != nil {
		return err
	}
	// The constructor and Descriptor are library code: both run once,
	// here, under a guard, and the descriptor serves every later query.
	desc, err := func() (desc core.Descriptor, err error) {
		defer core.CatchPanic(name, "create", -1, nil, &err)
		return ctor().Descriptor(), nil
	}()
	if err != nil {
		return err
	}
	// Validate the declared extra-parameter count against the library's
	// descriptor so a wrong signature is rejected at DDL time.
	declaredExtras := len(paramNames) - 2
	if declaredExtras != desc.Params {
		return fmt.Errorf("catalog: join %q declares %d extra parameters but class %q expects %d",
			name, declaredExtras, class, desc.Params)
	}
	c.joins[name] = &JoinDef{
		Name:      name,
		ParamName: append([]string(nil), paramNames...),
		ParamType: append([]string(nil), paramTypes...),
		Class:     class,
		Library:   library,
		New:       ctor,
		Desc:      desc,
	}
	return nil
}

// DropJoin removes an installed join function.
func (c *Catalog) DropJoin(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.joins[name]; !ok {
		return fmt.Errorf("catalog: no join %q", name)
	}
	delete(c.joins, name)
	return nil
}

// Join looks up an installed join function by name, returning nil
// (not an error) when absent — the optimizer probes candidate
// predicate names with this.
func (c *Catalog) Join(name string) *JoinDef {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.joins[name]
}

// Joins returns the sorted names of installed join functions.
func (c *Catalog) Joins() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.joins))
	for n := range c.joins {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
