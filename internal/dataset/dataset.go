// Package dataset implements the structured dataset model of HoloClean
// (Rekatsinas et al., VLDB 2017, Section 2.1).
//
// A dataset D is a set of tuples over attributes A = {A1..AN}; each tuple t
// is a set of cells Cells[t] = {Ai[t]}. Values are interned into a
// per-dataset dictionary so that the rest of the system (statistics,
// pruning, factor graphs) can operate on dense int32 value identifiers
// instead of strings. The initial observed values of all cells form Ω.
package dataset

import (
	"fmt"
	"sort"
)

// Value is an interned cell value. The zero Value is Null, representing a
// missing (empty) cell.
type Value int32

// Null is the Value of a missing cell.
const Null Value = 0

// Cell identifies a single cell t[a] by tuple index and attribute index.
type Cell struct {
	Tuple int
	Attr  int
}

// Dict interns strings to dense Values. The empty string is always interned
// as Null. A Dict is owned by a single Dataset but may be shared read-only.
type Dict struct {
	byString map[string]Value
	byValue  []string
}

// NewDict returns an empty dictionary with Null pre-interned.
func NewDict() *Dict {
	return &Dict{
		byString: map[string]Value{"": Null},
		byValue:  []string{""},
	}
}

// Intern returns the Value for s, assigning a fresh one if unseen.
func (d *Dict) Intern(s string) Value {
	if v, ok := d.byString[s]; ok {
		return v
	}
	v := Value(len(d.byValue))
	d.byString[s] = v
	d.byValue = append(d.byValue, s)
	return v
}

// Lookup returns the Value for s, or (Null, false) if s was never interned.
func (d *Dict) Lookup(s string) (Value, bool) {
	v, ok := d.byString[s]
	return v, ok
}

// String returns the string form of v. Unknown values print as "<v#n>".
func (d *Dict) String(v Value) string {
	if int(v) < len(d.byValue) {
		return d.byValue[v]
	}
	return fmt.Sprintf("<v#%d>", int(v))
}

// Size reports the number of distinct interned values, including Null.
func (d *Dict) Size() int { return len(d.byValue) }

// Dataset is a relational instance: a schema plus rows of interned values.
// It optionally carries per-tuple source identifiers (provenance), which
// HoloClean uses as trust features (Section 4.1).
type Dataset struct {
	attrs     []string
	attrIndex map[string]int
	dict      *Dict
	rows      [][]Value
	sources   []string // empty slice when no provenance is available
}

// New creates an empty dataset with the given attribute names.
func New(attrs []string) *Dataset {
	idx := make(map[string]int, len(attrs))
	for i, a := range attrs {
		if _, dup := idx[a]; dup {
			panic(fmt.Sprintf("dataset: duplicate attribute %q", a))
		}
		idx[a] = i
	}
	return &Dataset{
		attrs:     append([]string(nil), attrs...),
		attrIndex: idx,
		dict:      NewDict(),
	}
}

// Attrs returns the attribute names in schema order.
func (ds *Dataset) Attrs() []string { return ds.attrs }

// NumAttrs reports the number of attributes.
func (ds *Dataset) NumAttrs() int { return len(ds.attrs) }

// NumTuples reports the number of tuples.
func (ds *Dataset) NumTuples() int { return len(ds.rows) }

// NumCells reports the total number of cells, |D| × |A|.
func (ds *Dataset) NumCells() int { return len(ds.rows) * len(ds.attrs) }

// Dict exposes the value dictionary.
func (ds *Dataset) Dict() *Dict { return ds.dict }

// AttrIndex returns the index of the named attribute, or -1 if absent.
func (ds *Dataset) AttrIndex(name string) int {
	if i, ok := ds.attrIndex[name]; ok {
		return i
	}
	return -1
}

// AttrName returns the name of attribute a.
func (ds *Dataset) AttrName(a int) string { return ds.attrs[a] }

// Append adds a tuple given as strings in schema order and returns its index.
func (ds *Dataset) Append(values []string) int {
	if len(values) != len(ds.attrs) {
		panic(fmt.Sprintf("dataset: Append got %d values for %d attributes", len(values), len(ds.attrs)))
	}
	row := make([]Value, len(values))
	for i, s := range values {
		row[i] = ds.dict.Intern(s)
	}
	ds.rows = append(ds.rows, row)
	if len(ds.sources) > 0 {
		ds.sources = append(ds.sources, "")
	}
	return len(ds.rows) - 1
}

// AppendValues adds a tuple of pre-interned values and returns its index.
// The values must come from this dataset's Dict.
func (ds *Dataset) AppendValues(row []Value) int {
	if len(row) != len(ds.attrs) {
		panic(fmt.Sprintf("dataset: AppendValues got %d values for %d attributes", len(row), len(ds.attrs)))
	}
	ds.rows = append(ds.rows, append([]Value(nil), row...))
	if len(ds.sources) > 0 {
		ds.sources = append(ds.sources, "")
	}
	return len(ds.rows) - 1
}

// DeleteSwap removes tuple t by moving the last tuple into its slot and
// shrinking the relation by one. Only the moved tuple is renumbered, which
// bounds the invalidation an incremental cleaning session has to do for a
// deletion; callers that depend on tuple order must not use it.
func (ds *Dataset) DeleteSwap(t int) {
	last := len(ds.rows) - 1
	ds.rows[t] = ds.rows[last]
	ds.rows = ds.rows[:last]
	if len(ds.sources) > 0 {
		ds.sources[t] = ds.sources[last]
		ds.sources = ds.sources[:last]
	}
}

// Get returns the interned value of cell t[a].
func (ds *Dataset) Get(t, a int) Value { return ds.rows[t][a] }

// GetString returns the string value of cell t[a].
func (ds *Dataset) GetString(t, a int) string { return ds.dict.String(ds.rows[t][a]) }

// Set overwrites cell t[a] with an interned value.
func (ds *Dataset) Set(t, a int, v Value) { ds.rows[t][a] = v }

// SetString overwrites cell t[a], interning s as needed.
func (ds *Dataset) SetString(t, a int, s string) { ds.rows[t][a] = ds.dict.Intern(s) }

// Row returns the underlying value slice of tuple t. Callers must not
// mutate it; use Set for updates.
func (ds *Dataset) Row(t int) []Value { return ds.rows[t] }

// SetSource records the provenance source of tuple t.
func (ds *Dataset) SetSource(t int, source string) {
	if len(ds.sources) == 0 {
		ds.sources = make([]string, len(ds.rows))
	}
	ds.sources[t] = source
}

// Source returns the provenance source of tuple t ("" when unknown).
func (ds *Dataset) Source(t int) string {
	if len(ds.sources) == 0 {
		return ""
	}
	return ds.sources[t]
}

// HasSources reports whether any tuple carries provenance.
func (ds *Dataset) HasSources() bool { return len(ds.sources) > 0 }

// ActiveDomain returns the distinct non-null values appearing in attribute
// a, in ascending Value order. This is the candidate pool data-repairing
// systems draw from absent external knowledge (Section 5.1.1).
func (ds *Dataset) ActiveDomain(a int) []Value {
	seen := make(map[Value]struct{})
	for _, row := range ds.rows {
		if v := row[a]; v != Null {
			seen[v] = struct{}{}
		}
	}
	out := make([]Value, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone returns a deep copy sharing the value dictionary. Repair modules
// clone the input so the original observations Ω stay available.
func (ds *Dataset) Clone() *Dataset {
	out := &Dataset{
		attrs:     ds.attrs,
		attrIndex: ds.attrIndex,
		dict:      ds.dict,
		rows:      make([][]Value, len(ds.rows)),
	}
	for i, row := range ds.rows {
		out.rows[i] = append([]Value(nil), row...)
	}
	if len(ds.sources) > 0 {
		out.sources = append([]string(nil), ds.sources...)
	}
	return out
}

// Equal reports whether two datasets have identical schemas and cell values.
// Both datasets must share a dictionary for Value comparison to be valid;
// otherwise values are compared by string.
func (ds *Dataset) Equal(other *Dataset) bool {
	if len(ds.attrs) != len(other.attrs) || len(ds.rows) != len(other.rows) {
		return false
	}
	for i, a := range ds.attrs {
		if other.attrs[i] != a {
			return false
		}
	}
	sameDict := ds.dict == other.dict
	for t := range ds.rows {
		for a := range ds.attrs {
			if sameDict {
				if ds.rows[t][a] != other.rows[t][a] {
					return false
				}
			} else if ds.GetString(t, a) != other.GetString(t, a) {
				return false
			}
		}
	}
	return true
}

// Diff returns the cells at which ds and other disagree. Schemas must match.
func (ds *Dataset) Diff(other *Dataset) []Cell {
	var out []Cell
	for t := range ds.rows {
		for a := range ds.attrs {
			if ds.GetString(t, a) != other.GetString(t, a) {
				out = append(out, Cell{Tuple: t, Attr: a})
			}
		}
	}
	return out
}
