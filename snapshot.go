package holoclean

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"holoclean/internal/dataset"
)

// snapshotVersion is bumped whenever the snapshot envelope changes
// incompatibly; RestoreSession rejects versions it does not know.
const snapshotVersion = 1

// sessionSnapshot is the JSON envelope written by Session.Snapshot. The
// encoding is deterministic: rows in tuple order, constraints in
// declaration order, confirmations in confirmation order, and the weight
// map sorted by key (encoding/json orders map keys), so snapshotting the
// same session state twice yields identical bytes — the property that
// lets an evicted session be restored bit-exactly and lets operators
// de-duplicate or content-address snapshots.
type sessionSnapshot struct {
	Version int      `json:"version"`
	Attrs   []string `json:"attrs"`
	// Dict lists every interned value string in value-id order (Null
	// excluded). Candidate sets are ordered by value id, so restoring
	// the exact id assignment — including ids held by values no longer
	// present in any row — is what makes a restored session's candidate
	// ordering, and therefore its inference output, bit-identical to the
	// live session it snapshots.
	Dict        []string           `json:"dict"`
	Rows        [][]string         `json:"rows"`
	Sources     []string           `json:"sources,omitempty"`
	Constraints []string           `json:"constraints"`
	Weights     map[string]float64 `json:"weights,omitempty"`
	Confirmed   []snapshotCell     `json:"confirmed,omitempty"`
	Recleans    int                `json:"recleans"`
	Cleaned     bool               `json:"cleaned"`
}

// snapshotCell is one confirmed feedback entry of the envelope.
type snapshotCell struct {
	Tuple int    `json:"tuple"`
	Attr  int    `json:"attr"`
	Value string `json:"value"`
}

// Snapshot writes a deterministic, self-contained snapshot of the
// session: the current (dirty) dataset, the constraints in their textual
// form, the learned weights, the accumulated feedback, and the reclean
// counter. It does not serialize the incremental caches (statistics,
// marginals, shard fingerprints) — RestoreSession rebuilds those with one
// full pipeline pass, which by the session equivalence contract
// reproduces them exactly. Snapshot must not be called with mutations
// staged but not yet recleaned if the restored session is expected to
// match the live one operation for operation (the staged delta would be
// folded into the restore pass instead of the next Reclean).
func (s *Session) Snapshot(w io.Writer) error {
	ds := s.ds
	snap := sessionSnapshot{
		Version:  snapshotVersion,
		Attrs:    append([]string(nil), ds.Attrs()...),
		Rows:     make([][]string, ds.NumTuples()),
		Recleans: s.recleans,
		Cleaned:  s.prev != nil,
		Weights:  s.weights,
	}
	for v := 1; v < ds.Dict().Size(); v++ {
		snap.Dict = append(snap.Dict, ds.Dict().String(dataset.Value(v)))
	}
	for t := 0; t < ds.NumTuples(); t++ {
		row := make([]string, ds.NumAttrs())
		for a := range row {
			row[a] = ds.GetString(t, a)
		}
		snap.Rows[t] = row
	}
	if ds.HasSources() {
		snap.Sources = make([]string, ds.NumTuples())
		for t := range snap.Sources {
			snap.Sources[t] = ds.Source(t)
		}
	}
	for _, c := range s.constraints {
		if c.Name != "" {
			snap.Constraints = append(snap.Constraints, c.Name+": "+c.String())
		} else {
			snap.Constraints = append(snap.Constraints, c.String())
		}
	}
	for _, f := range s.confirmed {
		snap.Confirmed = append(snap.Confirmed, snapshotCell{Tuple: f.Cell.Tuple, Attr: f.Cell.Attr, Value: f.Value})
	}
	return json.NewEncoder(w).Encode(&snap)
}

// RestoreSession reconstructs a session from a Snapshot. opts must be the
// same Options the snapshotted session ran with — they are not part of
// the envelope (servers own them, and weights only transfer between runs
// of the same configuration). A session that had been cleaned is brought
// back to full working order by one pipeline pass over the snapshotted
// dataset reusing the snapshotted weights; the pass's Result (identical,
// by the equivalence contract, to the last result the live session
// produced) is returned alongside, or nil when the snapshot predates the
// first Clean. The reclean counter carries over, so the RelearnEvery
// schedule is unaffected by eviction.
func RestoreSession(r io.Reader, opts Options) (*Session, *Result, error) {
	var snap sessionSnapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&snap); err != nil {
		return nil, nil, fmt.Errorf("holoclean: decoding session snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, nil, fmt.Errorf("holoclean: session snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	ds := NewDataset(snap.Attrs)
	for _, v := range snap.Dict {
		ds.Dict().Intern(v)
	}
	for t, row := range snap.Rows {
		if len(row) != len(snap.Attrs) {
			return nil, nil, fmt.Errorf("holoclean: snapshot row %d has %d values, want %d", t, len(row), len(snap.Attrs))
		}
		ds.Append(row)
		if snap.Sources != nil {
			ds.SetSource(t, snap.Sources[t])
		}
	}
	constraints, err := ParseConstraints(strings.NewReader(strings.Join(snap.Constraints, "\n")))
	if err != nil {
		return nil, nil, fmt.Errorf("holoclean: parsing snapshot constraints: %w", err)
	}
	s := &Session{
		opts:        opts,
		constraints: constraints,
		ds:          ds,
		recleans:    snap.Recleans,
		touched:     make(map[int]bool),
	}
	for _, c := range snap.Confirmed {
		s.confirmed = append(s.confirmed, Feedback{Cell: Cell{Tuple: c.Tuple, Attr: c.Attr}, Value: c.Value})
	}
	if err := validateFeedback(ds, s.confirmed, nil); err != nil {
		return nil, nil, fmt.Errorf("holoclean: snapshot confirmed cells invalid: %w", err)
	}
	if err := requireSignals(constraints, opts); err != nil {
		return nil, nil, err
	}
	if !snap.Cleaned {
		return s, nil, nil
	}
	// A cleaned session has learned, even when it learned no weight: an
	// empty map is omitted from the envelope and must not restore as nil,
	// which a pass reads as "learn".
	s.weights = snap.Weights
	if s.weights == nil {
		s.weights = map[string]float64{}
	}
	res, err := s.run(nil, false)
	if err != nil {
		return nil, nil, fmt.Errorf("holoclean: rebuilding restored session: %w", err)
	}
	return s, res, nil
}
