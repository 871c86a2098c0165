// Package extdict implements the external-information signal of HoloClean
// (Sections 2.2, 4.1, 4.2): external dictionaries (relation
// ExtDict(tk, ak, v, k)) and matching dependencies [5, 19] that align a
// dirty dataset with them. Applying the matching dependencies populates
// the Matched(t, a, d, k) relation whose entries become factors with
// per-dictionary reliability weights w(k).
package extdict

import (
	"fmt"

	"holoclean/internal/dataset"
	"holoclean/internal/text"
)

// Dictionary is one external reference relation (identified by k = Name).
type Dictionary struct {
	Name  string
	Attrs []string
	Rows  [][]string

	attrIndex map[string]int
}

// NewDictionary creates an empty dictionary with the given schema.
func NewDictionary(name string, attrs []string) *Dictionary {
	idx := make(map[string]int, len(attrs))
	for i, a := range attrs {
		idx[a] = i
	}
	return &Dictionary{Name: name, Attrs: attrs, attrIndex: idx}
}

// Append adds a row in schema order.
func (d *Dictionary) Append(row []string) {
	if len(row) != len(d.Attrs) {
		panic(fmt.Sprintf("extdict: row width %d, schema width %d", len(row), len(d.Attrs)))
	}
	d.Rows = append(d.Rows, append([]string(nil), row...))
}

// AttrIndex returns the column index of attr, or -1.
func (d *Dictionary) AttrIndex(attr string) int {
	if i, ok := d.attrIndex[attr]; ok {
		return i
	}
	return -1
}

// Term is one attribute correspondence of a matching dependency:
// dataset attribute ↔ dictionary attribute, matched exactly or with the
// similarity operator ≈.
type Term struct {
	DataAttr string
	DictAttr string
	Approx   bool
}

// MatchDependency is an implication in the style of Figure 1(C):
// conjunction of Conditions ⇒ Conclusion, e.g.
// Zip = Ext_Zip → City = Ext_City.
type MatchDependency struct {
	Name       string
	Dict       string // dictionary name (the k identifier)
	Conditions []Term
	Conclusion Term
}

func (md *MatchDependency) String() string {
	s := ""
	for i, c := range md.Conditions {
		if i > 0 {
			s += " ∧ "
		}
		op := "="
		if c.Approx {
			op = "≈"
		}
		s += fmt.Sprintf("%s %s %s", c.DataAttr, op, c.DictAttr)
	}
	return fmt.Sprintf("%s: %s → %s = %s", md.Name, s, md.Conclusion.DataAttr, md.Conclusion.DictAttr)
}

// Match is one entry of the Matched relation: dictionary Dict suggests
// Value for Cell via dependency MD. CondCells lists the dataset cells the
// match was conditioned on through EXACT terms; a consumer can discount
// suggestions whose conditions rest on cells that are themselves suspect.
// Approximate (≈) conditions tolerate noisy values by design and are not
// listed.
type Match struct {
	Cell      dataset.Cell
	Value     string
	Dict      string
	MD        string
	CondCells []dataset.Cell
}

// Matcher applies matching dependencies against a set of dictionaries.
type Matcher struct {
	dicts map[string]*Dictionary
	mds   []*MatchDependency
}

// NewMatcher validates that every dependency references a known dictionary
// and known attributes on both sides.
func NewMatcher(ds *dataset.Dataset, dicts []*Dictionary, mds []*MatchDependency) (*Matcher, error) {
	byName := make(map[string]*Dictionary, len(dicts))
	for _, d := range dicts {
		byName[d.Name] = d
	}
	for _, md := range mds {
		dict, ok := byName[md.Dict]
		if !ok {
			return nil, fmt.Errorf("extdict: dependency %q references unknown dictionary %q", md.Name, md.Dict)
		}
		for _, term := range append(append([]Term(nil), md.Conditions...), md.Conclusion) {
			if ds.AttrIndex(term.DataAttr) < 0 {
				return nil, fmt.Errorf("extdict: dependency %q: dataset has no attribute %q", md.Name, term.DataAttr)
			}
			if dict.AttrIndex(term.DictAttr) < 0 {
				return nil, fmt.Errorf("extdict: dependency %q: dictionary %q has no attribute %q", md.Name, md.Dict, term.DictAttr)
			}
		}
		if len(md.Conditions) == 0 {
			return nil, fmt.Errorf("extdict: dependency %q has no conditions", md.Name)
		}
	}
	return &Matcher{dicts: byName, mds: mds}, nil
}

// Apply populates the Matched relation for every tuple of ds: for each
// dependency, dictionary rows satisfying all conditions contribute their
// conclusion value as a suggestion for the conclusion cell. Duplicate
// (cell, value, dict) triples are emitted once.
func (m *Matcher) Apply(ds *dataset.Dataset) []Match {
	var out []Match
	type key struct {
		cell  dataset.Cell
		value string
		dict  string
	}
	seen := make(map[key]struct{})
	for _, md := range m.mds {
		dict := m.dicts[md.Dict]
		index, exactIdx := m.buildIndex(dict, md)
		concData := ds.AttrIndex(md.Conclusion.DataAttr)
		concDict := dict.AttrIndex(md.Conclusion.DictAttr)
		var condAttrs []int
		for _, c := range md.Conditions {
			if !c.Approx {
				condAttrs = append(condAttrs, ds.AttrIndex(c.DataAttr))
			}
		}
		for t := 0; t < ds.NumTuples(); t++ {
			candidates := dict.Rows
			if index != nil {
				v := ds.GetString(t, ds.AttrIndex(md.Conditions[exactIdx].DataAttr))
				rows := index[v]
				if len(rows) == 0 {
					continue
				}
				candidates = rows
			}
			for _, row := range candidates {
				if !m.conditionsHold(ds, t, dict, md, row) {
					continue
				}
				k := key{dataset.Cell{Tuple: t, Attr: concData}, row[concDict], md.Dict}
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				conds := make([]dataset.Cell, len(condAttrs))
				for i, a := range condAttrs {
					conds[i] = dataset.Cell{Tuple: t, Attr: a}
				}
				out = append(out, Match{Cell: k.cell, Value: k.value, Dict: md.Dict, MD: md.Name, CondCells: conds})
			}
		}
	}
	return out
}

// buildIndex hash-indexes the dictionary on the first exact condition, if
// any, returning the index and which condition it covers. Approximate
// conditions cannot be hash keys.
func (m *Matcher) buildIndex(dict *Dictionary, md *MatchDependency) (map[string][][]string, int) {
	for i, c := range md.Conditions {
		if c.Approx {
			continue
		}
		col := dict.AttrIndex(c.DictAttr)
		idx := make(map[string][][]string)
		for _, row := range dict.Rows {
			idx[row[col]] = append(idx[row[col]], row)
		}
		return idx, i
	}
	return nil, -1
}

func (m *Matcher) conditionsHold(ds *dataset.Dataset, t int, dict *Dictionary, md *MatchDependency, row []string) bool {
	for _, c := range md.Conditions {
		dv := ds.GetString(t, ds.AttrIndex(c.DataAttr))
		if dv == "" {
			return false
		}
		kv := row[dict.AttrIndex(c.DictAttr)]
		if c.Approx {
			if !text.Similar(dv, kv) {
				return false
			}
		} else if dv != kv {
			return false
		}
	}
	return true
}

// DetectErrors returns cells whose observed value contradicts an exact
// dictionary suggestion — the dictionary-based error detection mode of
// Section 2.2. A cell with at least one agreeing suggestion is not
// flagged even if other suggestions disagree.
func DetectErrors(ds *dataset.Dataset, matches []Match) []dataset.Cell {
	agree := make(map[dataset.Cell]bool)
	suggested := make(map[dataset.Cell]bool)
	for _, m := range matches {
		suggested[m.Cell] = true
		if ds.GetString(m.Cell.Tuple, m.Cell.Attr) == m.Value {
			agree[m.Cell] = true
		}
	}
	var out []dataset.Cell
	for c := range suggested {
		if !agree[c] {
			out = append(out, c)
		}
	}
	return out
}
