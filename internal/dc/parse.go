package dc

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Parse parses a single denial constraint in the textual format, e.g.
//
//	t1&t2&EQ(t1.Zip,t2.Zip)&IQ(t1.City,t2.City)
//	t1&EQ(t1.State,"XX")
//
// Tuple-variable declarations (t1, optionally t2) come first; the
// remaining '&'-separated terms are predicates OP(operand,operand) where
// an operand is tN.Attr or a (optionally quoted) constant. A quoted
// constant is a Go string literal ("C:\\dir", "a\tb"), the form String
// renders, so Parse(c.String()) reproduces c; quoted text that is not a
// valid literal ("C:\dir") is taken verbatim. Attribute names are non-empty,
// hold no ',' or '"', balance their parentheses and hold '&' only inside them.
func Parse(s string) (*Constraint, error) {
	parts := split(s, '&', true)
	c := &Constraint{}
	i := 0
	for i < len(parts) {
		p := strings.TrimSpace(parts[i])
		if p == "t1" && c.TupleVars == 0 {
			c.TupleVars = 1
			i++
			continue
		}
		if p == "t2" && c.TupleVars == 1 {
			c.TupleVars = 2
			i++
			continue
		}
		break
	}
	if c.TupleVars == 0 {
		return nil, fmt.Errorf("dc: %q: missing tuple-variable declarations (expected leading t1 or t1&t2)", s)
	}
	if i == len(parts) {
		return nil, fmt.Errorf("dc: %q: no predicates", s)
	}
	for ; i < len(parts); i++ {
		pred, err := parsePredicate(strings.TrimSpace(parts[i]))
		if err != nil {
			return nil, fmt.Errorf("dc: %q: %w", s, err)
		}
		c.Predicates = append(c.Predicates, pred)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// MustParse is Parse that panics on error, for constraint tables in tests
// and generators.
func MustParse(s string) *Constraint {
	c, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return c
}

// ParseAll parses one constraint per non-empty, non-comment ('#') line.
// Each constraint is named c1, c2, … by position unless the line carries a
// "name:" prefix. Names must be distinct — a constraint's name ties its
// learned weights — so a name that repeats an earlier one, given or
// positional, is an error naming both lines.
func ParseAll(r io.Reader) ([]*Constraint, error) {
	var out []*Constraint
	lineOf := make(map[string]int)
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" || strings.HasPrefix(txt, "#") {
			continue
		}
		name := fmt.Sprintf("c%d", len(out)+1)
		if j := strings.Index(txt, ":"); j > 0 && !strings.Contains(txt[:j], "(") && !strings.Contains(txt[:j], "&") {
			name = strings.TrimSpace(txt[:j])
			txt = strings.TrimSpace(txt[j+1:])
		}
		c, err := Parse(txt)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if first, dup := lineOf[name]; dup {
			return nil, fmt.Errorf("line %d: constraint name %q is already taken by line %d", line, name, first)
		}
		lineOf[name] = line
		c.Name = name
		out = append(out, c)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// split cuts s at every sep outside double quotes and — when nested is
// set — outside parentheses. Inside quotes a backslash escapes the next
// byte, so the quoted constants String renders never end early.
func split(s string, sep byte, nested bool) []string {
	var parts []string
	depth := 0
	inQuote := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			inQuote = !inQuote
		case inQuote:
			if c == '\\' {
				i++
			}
		case c == '(' && nested:
			depth++
		case c == ')' && nested:
			depth--
		case c == sep && depth == 0:
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	return append(parts, s[start:])
}

func parsePredicate(s string) (Predicate, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return Predicate{}, fmt.Errorf("malformed predicate %q", s)
	}
	code := strings.ToUpper(strings.TrimSpace(s[:open]))
	var op Op
	found := false
	for o, c := range opCodes {
		if c == code {
			op = Op(o)
			found = true
			break
		}
	}
	if !found {
		return Predicate{}, fmt.Errorf("unknown operator %q in %q", code, s)
	}
	body := s[open+1 : len(s)-1]
	args := split(body, ',', false)
	if len(args) != 2 {
		return Predicate{}, fmt.Errorf("predicate %q needs 2 operands, got %d", s, len(args))
	}
	left, err := parseOperand(args[0])
	if err != nil {
		return Predicate{}, err
	}
	if left.IsConst {
		return Predicate{}, fmt.Errorf("predicate %q: left operand must reference a tuple attribute", s)
	}
	right, err := parseOperand(args[1])
	if err != nil {
		return Predicate{}, err
	}
	return Predicate{Left: left, Op: op, Right: right}, nil
}

func parseOperand(s string) (Operand, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Operand{}, fmt.Errorf("empty operand")
	}
	if strings.HasPrefix(s, `"`) {
		if !strings.HasSuffix(s, `"`) || len(s) < 2 {
			return Operand{}, fmt.Errorf("unterminated quoted constant %q", s)
		}
		// String renders constants as Go string literals; quoted text that
		// is not one (a lone backslash, an inner quote) is taken verbatim.
		if v, err := strconv.Unquote(s); err == nil {
			return Const(v), nil
		}
		return Const(s[1 : len(s)-1]), nil
	}
	for tuple, prefix := range []string{"t1.", "t2."} {
		if name, ok := strings.CutPrefix(s, prefix); ok {
			if !selfContained(name) {
				return Operand{}, fmt.Errorf("attribute name %q holds a quote or unbalanced parentheses", name)
			}
			return AttrRef(tuple, name), nil
		}
	}
	// Bare token: a constant (e.g. numeric literal).
	return Const(s), nil
}

// selfContained reports whether an attribute name leaves the splitter's
// quote and nesting state as it found it, so what surrounds the name — a
// bare constant in the source, a quoted one in String's rendering — cannot
// change where the text is cut.
func selfContained(name string) bool {
	depth := 0
	for i := 0; i < len(name) && depth >= 0; i++ {
		switch name[i] {
		case '"':
			return false
		case '(':
			depth++
		case ')':
			depth--
		}
	}
	return depth == 0
}
