package holoclean

import (
	"errors"
	"fmt"
	"sort"

	"holoclean/internal/dataset"
)

// ErrInvalidFeedback tags feedback-batch validation failures (cell out
// of range, empty value, duplicate confirmation), so callers — the
// serve package maps them to 400 — can tell a rejected batch from a
// pipeline failure with errors.Is.
var ErrInvalidFeedback = errors.New("holoclean: invalid feedback")

// Feedback is a user-confirmed cell value — the raw material of the
// paper's Section 2.2 feedback loop: "we can ask users to verify repairs
// with low marginal probabilities and use those as labeled examples to
// retrain the parameters of HoloClean's model".
type Feedback struct {
	Cell  Cell
	Value string
}

// LowConfidenceRepairs returns the proposed repairs whose marginal
// probability is below threshold, ordered by ascending confidence — the
// repairs worth soliciting user verification for. Equal probabilities are
// tie-broken by (Tuple, Attr), so the ordering — and any pagination over
// it — is fully deterministic across identical runs.
func (r *Result) LowConfidenceRepairs(threshold float64) []Repair {
	var out []Repair
	for _, rep := range r.Repairs {
		if rep.Probability < threshold {
			out = append(out, rep)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Probability != out[j].Probability {
			return out[i].Probability < out[j].Probability
		}
		if out[i].Tuple != out[j].Tuple {
			return out[i].Tuple < out[j].Tuple
		}
		return out[i].Cell.Attr < out[j].Cell.Attr
	})
	return out
}

// validateFeedback checks a feedback batch against ds: every cell must be
// in range, every confirmed value non-empty (the dataset dictionary
// interns the empty string as the Null value, which cannot be a confirmed
// observation), and no cell may appear twice — neither within the batch
// nor against the already-confirmed set. Duplicates are an error rather
// than last-write-wins: a confirmation is a ground-truth assertion, and
// two of them for one cell is a contradiction the caller must resolve.
func validateFeedback(ds *Dataset, fb []Feedback, confirmed map[Cell]bool) error {
	seen := make(map[Cell]bool, len(fb))
	for _, f := range fb {
		if f.Cell.Tuple < 0 || f.Cell.Tuple >= ds.NumTuples() ||
			f.Cell.Attr < 0 || f.Cell.Attr >= ds.NumAttrs() {
			return fmt.Errorf("%w: cell %+v out of range", ErrInvalidFeedback, f.Cell)
		}
		// Interning "" yields dataset.Null; check the string directly so
		// validation never grows the dictionary on a rejected batch.
		if f.Value == "" {
			return fmt.Errorf("%w: cell %+v has empty value (interns to Null)", ErrInvalidFeedback, f.Cell)
		}
		if seen[f.Cell] {
			return fmt.Errorf("%w: duplicate confirmation for cell %+v within the batch", ErrInvalidFeedback, f.Cell)
		}
		if confirmed[f.Cell] {
			return fmt.Errorf("%w: cell %+v already has confirmed feedback", ErrInvalidFeedback, f.Cell)
		}
		seen[f.Cell] = true
	}
	return nil
}

// CleanWithFeedback re-runs the pipeline with user-confirmed values:
// each confirmed cell is set to its confirmed value, excluded from the
// noisy set, and force-included as labeled evidence for weight learning.
// The input dataset is not modified. Feedback must be non-contradictory:
// an empty confirmed value or two confirmations for the same cell is an
// error.
func (cl *Cleaner) CleanWithFeedback(ds *Dataset, constraints []*Constraint, feedback []Feedback) (*Result, error) {
	if err := validateFeedback(ds, feedback, nil); err != nil {
		return nil, err
	}
	work := ds.Clone()
	trusted := make([]dataset.Cell, 0, len(feedback))
	for _, f := range feedback {
		work.SetString(f.Cell.Tuple, f.Cell.Attr, f.Value)
		trusted = append(trusted, f.Cell)
	}
	return newPass(cl.opts, work, constraints, trusted).run(nil)
}

// Feedback applies user confirmations to the session — the serving-side
// half of the Section 2.2 loop over LowConfidenceRepairs. Each confirmed
// cell is set to its confirmed value, permanently leaves the noisy set,
// and is force-included as labeled evidence whenever weights are
// (re)learned. The confirmations are staged like any other mutation and
// take effect immediately through a Reclean: the round counts toward the
// Options.RelearnEvery schedule, and unless a relearn is due only the
// shards the confirmations invalidated re-execute — the output is the one
// CleanWithFeedback would produce under the same weights.
//
// The batch is validated up front (in-range cells, non-empty values, no
// duplicate against the batch or earlier confirmations) and rejected
// whole on any violation (ErrInvalidFeedback): no value is written, no
// state changes. If the pipeline itself fails after validation, the
// confirmations stay staged coherently — the written values are marked
// touched like any other pending mutation, so a later Reclean applies
// them.
func (s *Session) Feedback(fb []Feedback) (*Result, error) {
	if len(fb) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrInvalidFeedback)
	}
	if s.prev == nil {
		if _, err := s.Clean(); err != nil {
			return nil, err
		}
	}
	if err := validateFeedback(s.ds, fb, s.confirmedSet()); err != nil {
		return nil, err
	}
	for _, f := range fb {
		s.ds.SetString(f.Cell.Tuple, f.Cell.Attr, f.Value)
		s.touched[f.Cell.Tuple] = true
		s.confirmed = append(s.confirmed, f)
	}
	return s.Reclean()
}

// Confirmed returns the session's accumulated feedback in confirmation
// order (a copy; the session is unaffected by mutations of it).
func (s *Session) Confirmed() []Feedback {
	return append([]Feedback(nil), s.confirmed...)
}

// ConfirmedCount reports the number of accumulated confirmations
// without copying them.
func (s *Session) ConfirmedCount() int { return len(s.confirmed) }

// confirmedSet is the confirmed-cell membership view of s.confirmed.
func (s *Session) confirmedSet() map[Cell]bool {
	out := make(map[Cell]bool, len(s.confirmed))
	for _, f := range s.confirmed {
		out[f.Cell] = true
	}
	return out
}
