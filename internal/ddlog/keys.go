package ddlog

import (
	"strconv"
	"strings"

	"holoclean/internal/factor"
)

// Tying-key families. Grounding ties the weight of every factor by a
// factor.Tie of one of these families, built from small ints (a name is a
// KeyInterner id), so the hot loops neither format nor hash a string. The
// key strings of the comments are the ties' boundary form (Keys): what
// Result.LearnedWeights, Options.InitialWeights and snapshots carry.
const (
	TieFeature    int32 = iota // ft|A|B|cC=D: attribute, candidate label, sibling attribute, sibling value
	TieSource                  // ft|A|B|s=C: attribute, candidate label, source name
	TieCooc                    // cooc|A|B: attribute, sibling attribute (raw statistics)
	TieClean                   // ccln|A|B: attribute, sibling attribute (clean-cell statistics)
	TieFreq                    // freq|A: attribute
	TieFusion                  // fusion|A: attribute
	TieRelaxed                 // rdc|A: rule name
	TieDict                    // dict|A, or dict|A|weak when B is 1: dictionary name
	TieMinimality              // prior|minimality
	TieDC                      // dc|A: rule name
	TieDamped                  // dc~|A: rule name
)

// Keys is the one encoder/decoder pair between ties and tying-key
// strings, resolving names through an interner. String and Parse are
// inverse: Parse accepts exactly the strings String renders, so a key
// that is malformed, non-canonical (a leading zero) or names a name the
// interner never registered parses to nothing and ties no factor. A
// dictionary named with a "|weak" suffix reads back as the weak key of
// the shorter name when that name is registered too.
type Keys struct{ Names *factor.KeyInterner }

// String renders tie t as its tying-key string.
func (k Keys) String(t factor.Tie) string {
	var buf [64]byte
	return string(k.Append(buf[:0], t))
}

// Append appends tie t's tying-key string to b.
func (k Keys) Append(b []byte, t factor.Tie) []byte {
	num := func(v int32) { b = strconv.AppendInt(b, int64(v), 10) }
	switch t.Family {
	case TieFeature, TieSource:
		b = append(b, "ft|"...)
		num(t.A)
		b = append(b, '|')
		num(t.B)
		if t.Family == TieSource {
			b = append(append(b, "|s="...), k.Names.Name(t.C)...)
			break
		}
		b = append(b, "|c"...)
		num(t.C)
		b = append(b, '=')
		num(t.D)
	case TieCooc:
		b = append(b, "cooc|"...)
		num(t.A)
		b = append(b, '|')
		num(t.B)
	case TieClean:
		b = append(b, "ccln|"...)
		num(t.A)
		b = append(b, '|')
		num(t.B)
	case TieFreq:
		b = append(b, "freq|"...)
		num(t.A)
	case TieFusion:
		b = append(b, "fusion|"...)
		num(t.A)
	case TieRelaxed:
		b = append(append(b, "rdc|"...), k.Names.Name(t.A)...)
	case TieDict:
		b = append(append(b, "dict|"...), k.Names.Name(t.A)...)
		if t.B == 1 {
			b = append(b, "|weak"...)
		}
	case TieMinimality:
		b = append(b, "prior|minimality"...)
	case TieDC:
		b = append(append(b, "dc|"...), k.Names.Name(t.A)...)
	case TieDamped:
		b = append(append(b, "dc~|"...), k.Names.Name(t.A)...)
	}
	return b
}

// Parse returns the tie tying-key string s renders, if any.
func (k Keys) Parse(s string) (factor.Tie, bool) {
	fam, rest, _ := strings.Cut(s, "|")
	var t factor.Tie
	ok := true
	// field reads the next '|'-separated integer of rest.
	field := func() int32 {
		f, r, _ := strings.Cut(rest, "|")
		rest = r
		v, err := strconv.ParseInt(f, 10, 32)
		ok = ok && err == nil
		return int32(v)
	}
	name := func(n string) int32 {
		id, found := k.Names.Lookup(n)
		ok = ok && found
		return id
	}
	switch fam {
	case "ft":
		t.A, t.B = field(), field()
		if src, isSrc := strings.CutPrefix(rest, "s="); isSrc {
			t.Family, t.C = TieSource, name(src)
			break
		}
		g, v, _ := strings.Cut(strings.TrimPrefix(rest, "c"), "=")
		rest = g
		t.Family, t.C = TieFeature, field()
		rest = v
		t.D = field()
	case "cooc", "ccln":
		t.Family = TieCooc
		if fam == "ccln" {
			t.Family = TieClean
		}
		t.A, t.B = field(), field()
	case "freq":
		t.Family, t.A = TieFreq, field()
	case "fusion":
		t.Family, t.A = TieFusion, field()
	case "rdc":
		t.Family, t.A = TieRelaxed, name(rest)
	case "dict":
		t.Family = TieDict
		if n, weak := strings.CutSuffix(rest, "|weak"); weak {
			if id, found := k.Names.Lookup(n); found {
				t.A, t.B = id, 1
				break
			}
		}
		t.A = name(rest)
	case "prior":
		t.Family = TieMinimality
	case "dc":
		t.Family, t.A = TieDC, name(rest)
	case "dc~":
		t.Family, t.A = TieDamped, name(rest)
	default:
		return factor.Tie{}, false
	}
	var buf [64]byte
	if !ok || string(k.Append(buf[:0], t)) != s {
		return factor.Tie{}, false
	}
	return t, true
}
