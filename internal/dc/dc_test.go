package dc

import (
	"strings"
	"testing"

	"holoclean/internal/dataset"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"t1&t2&EQ(t1.Zip,t2.Zip)&IQ(t1.City,t2.City)",
		"t1&t2&EQ(t1.A,t2.A)&IQ(t1.B,t2.B)&LT(t1.C,t2.C)",
		`t1&EQ(t1.State,"XX")`,
		`t1&t2&SIM(t1.Name,t2.Name)&GTE(t1.Age,t2.Age)`,
		`t1&t2&EQ(t1.City,t2.City)&EQ(t1.State,t2.State)&IQ(t1.Zip,t2.Zip)`,
	}
	for _, s := range cases {
		c, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		back, err := Parse(c.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", c.String(), err)
		}
		if back.String() != c.String() {
			t.Errorf("round trip: %q → %q", c.String(), back.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"t1",                                // no predicates
		"EQ(t1.A,t2.A)",                     // missing tuple vars
		"t1&t2&BOGUS(t1.A,t2.A)",            // unknown operator
		"t1&t2&EQ(t1.A)",                    // one operand
		"t1&EQ(t1.A,t2.B)",                  // references undeclared t2
		`t1&t2&EQ("const",t2.A)`,            // constant on the left
		"t1&t2&EQ(t1.A,t2.A",                // unterminated
		`t1&t2&EQ(t1.A,"unterminated)`,      // bad quote
		"t2&t1&EQ(t1.A,t2.A)",               // t2 before t1
		"t1&t2&t1&EQ(t1.A,t2.A)&EQ(t1.A,1)", // stray declaration
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestParseAll(t *testing.T) {
	in := `
# a comment
c1: t1&t2&EQ(t1.Zip,t2.Zip)&IQ(t1.City,t2.City)

t1&t2&EQ(t1.A,t2.A)&IQ(t1.B,t2.B)
`
	cs, err := ParseAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Fatalf("parsed %d constraints, want 2", len(cs))
	}
	if cs[0].Name != "c1" {
		t.Errorf("explicit name lost: %q", cs[0].Name)
	}
	if cs[1].Name != "c2" {
		t.Errorf("positional name = %q, want c2", cs[1].Name)
	}
}

// TestParseAllRejectsDuplicateNames: a constraint's name ties its learned
// weights, so ParseAll refuses a repeated name — given twice, or given to
// one line and taken by another's position — and names both lines.
func TestParseAllRejectsDuplicateNames(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"h4: t1&t2&EQ(t1.A,t2.A)&IQ(t1.B,t2.B)\nh4: t1&t2&EQ(t1.C,t2.C)&IQ(t1.B,t2.B)\n", `line 2: constraint name "h4" is already taken by line 1`},
		{"c2: t1&t2&EQ(t1.A,t2.A)&IQ(t1.B,t2.B)\n# c2 again, by position\nt1&t2&EQ(t1.C,t2.C)&IQ(t1.B,t2.B)\n", `line 3: constraint name "c2" is already taken by line 1`},
		{"t1&t2&EQ(t1.A,t2.A)&IQ(t1.B,t2.B)\n\nc1: t1&t2&EQ(t1.C,t2.C)&IQ(t1.B,t2.B)\n", `line 3: constraint name "c1" is already taken by line 1`},
	} {
		_, err := ParseAll(strings.NewReader(tc.in))
		if err == nil || err.Error() != tc.want {
			t.Errorf("ParseAll(%q) = %v, want %s", tc.in, err, tc.want)
		}
	}
}

func TestFD(t *testing.T) {
	cs := FD("c2", []string{"Zip"}, []string{"City", "State"})
	if len(cs) != 2 {
		t.Fatalf("FD with 2 RHS should give 2 constraints")
	}
	want := "t1&t2&EQ(t1.Zip,t2.Zip)&IQ(t1.City,t2.City)"
	if cs[0].String() != want {
		t.Errorf("FD[0] = %q, want %q", cs[0].String(), want)
	}
	if cs[0].Name != "c2" || cs[1].Name != "c2.2" {
		t.Errorf("FD names: %q, %q", cs[0].Name, cs[1].Name)
	}
}

func testDataset() *dataset.Dataset {
	ds := dataset.New([]string{"Zip", "City", "Score"})
	ds.Append([]string{"60608", "Chicago", "10"})
	ds.Append([]string{"60608", "Cicago", "20"})
	ds.Append([]string{"60609", "Chicago", "5"})
	ds.Append([]string{"", "Chicago", "7"})
	return ds
}

func TestViolatesFD(t *testing.T) {
	ds := testDataset()
	c := MustParse("t1&t2&EQ(t1.Zip,t2.Zip)&IQ(t1.City,t2.City)")
	b, err := c.Bind(ds)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Violates(0, 1) || !b.Violates(1, 0) {
		t.Errorf("tuples 0,1 share zip with different cities: should violate both ways")
	}
	if b.Violates(0, 2) {
		t.Errorf("different zips cannot violate")
	}
	if b.Violates(0, 0) {
		t.Errorf("a tuple cannot violate with itself")
	}
	if b.Violates(0, 3) || b.Violates(3, 0) {
		t.Errorf("null zip must not participate in violations")
	}
}

func TestViolatesOrdering(t *testing.T) {
	ds := testDataset()
	// Same city implies score must not be lower: ¬(city=city ∧ s1<s2).
	c := MustParse("t1&t2&EQ(t1.City,t2.City)&LT(t1.Score,t2.Score)")
	b, err := c.Bind(ds)
	if err != nil {
		t.Fatal(err)
	}
	// Tuples 0 (10) and 2 (5), same city: 5 < 10 so (2,0) violates.
	if !b.Violates(2, 0) {
		t.Errorf("(2,0) should violate: 5 < 10")
	}
	if b.Violates(0, 2) {
		t.Errorf("(0,2) should not violate: 10 > 5")
	}
	// Numeric comparison, not lexicographic: "5" < "10" numerically.
	if !b.Violates(2, 0) {
		t.Errorf("comparison should be numeric")
	}
}

func TestViolatesConstant(t *testing.T) {
	ds := testDataset()
	c := MustParse(`t1&EQ(t1.City,"Cicago")`)
	b, err := c.Bind(ds)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Violates(1, -1) {
		t.Errorf("tuple 1 has City=Cicago, should violate")
	}
	if b.Violates(0, -1) {
		t.Errorf("tuple 0 has City=Chicago, should not violate")
	}
}

func TestViolatesUninternedConstant(t *testing.T) {
	ds := testDataset()
	// Constant that never appears in the data.
	cEq := MustParse(`t1&EQ(t1.City,"Atlantis")`)
	b, err := cEq.Bind(ds)
	if err != nil {
		t.Fatal(err)
	}
	for tu := 0; tu < ds.NumTuples(); tu++ {
		if b.Violates(tu, -1) {
			t.Errorf("no tuple equals Atlantis")
		}
	}
	cNeq := MustParse(`t1&IQ(t1.City,"Atlantis")`)
	b2, err := cNeq.Bind(ds)
	if err != nil {
		t.Fatal(err)
	}
	if !b2.Violates(0, -1) {
		t.Errorf("every non-null city differs from Atlantis")
	}
}

func TestBindUnknownAttr(t *testing.T) {
	ds := testDataset()
	c := MustParse("t1&t2&EQ(t1.Nope,t2.Nope)")
	if _, err := c.Bind(ds); err == nil {
		t.Errorf("binding unknown attribute should fail")
	}
}

func TestSimilarityPredicate(t *testing.T) {
	ds := testDataset()
	c := MustParse("t1&t2&EQ(t1.Zip,t2.Zip)&SIM(t1.City,t2.City)")
	b, err := c.Bind(ds)
	if err != nil {
		t.Fatal(err)
	}
	// Chicago ≈ Cicago, same zip → all predicates hold → violation.
	if !b.Violates(0, 1) {
		t.Errorf("Chicago ≈ Cicago should satisfy SIM")
	}
}

func TestEqualityJoinAttrs(t *testing.T) {
	ds := testDataset()
	c := MustParse("t1&t2&EQ(t1.Zip,t2.Zip)&IQ(t1.City,t2.City)")
	b, _ := c.Bind(ds)
	joins := b.Joins
	if len(joins) != 1 {
		t.Fatalf("joins = %v, want one", joins)
	}
	zip := ds.AttrIndex("Zip")
	if joins[0] != [2]int{zip, zip} {
		t.Errorf("join = %v, want [%d %d]", joins[0], zip, zip)
	}
	// No cross-tuple equality → no joins.
	c2 := MustParse("t1&t2&IQ(t1.City,t2.City)")
	b2, _ := c2.Bind(ds)
	if len(b2.Joins) != 0 {
		t.Errorf("IQ-only constraint should have no equality joins")
	}
}

func TestCompareNumericVsLex(t *testing.T) {
	if !Compare(Lt, "5", "10") {
		t.Errorf("5 < 10 numerically")
	}
	if Compare(Lt, "b10", "a5") {
		t.Errorf("b10 > a5 lexicographically")
	}
	if !Compare(Geq, "10", "10") {
		t.Errorf("10 >= 10")
	}
	if !Compare(Sim, "Chicago", "Cicago") {
		t.Errorf("Sim should use text.Similar")
	}
}

func TestAttributes(t *testing.T) {
	c := MustParse("t1&t2&EQ(t1.Zip,t2.Zip)&IQ(t1.City,t2.City)")
	attrs := c.Attributes()
	if len(attrs) != 2 || attrs[0] != "Zip" || attrs[1] != "City" {
		t.Errorf("Attributes = %v", attrs)
	}
}

func TestValidate(t *testing.T) {
	c := &Constraint{TupleVars: 3, Predicates: []Predicate{{Left: AttrRef(0, "A"), Op: Eq, Right: Const("x")}}}
	if err := c.Validate(); err == nil {
		t.Errorf("3 tuple vars should be invalid")
	}
	c2 := &Constraint{TupleVars: 2}
	if err := c2.Validate(); err == nil {
		t.Errorf("no predicates should be invalid")
	}
	if _, err := Parse("t1&EQ(t1.,x)"); err == nil {
		t.Errorf("an empty attribute name should be invalid")
	}
}
