package dc_test

import (
	"bufio"
	"os"
	"reflect"
	"strings"
	"testing"

	"holoclean/internal/datagen"
	"holoclean/internal/dc"
)

// FuzzParseConstraint holds Parse to its contract on arbitrary bytes: an
// input is rejected, or it parses to a constraint that passes Validate and
// that String renders back to text Parse reads as the same constraint —
// the property session snapshots and WAL checkpoints rely on. Under plain
// `go test` the seed corpus runs as a unit test.
func FuzzParseConstraint(f *testing.F) {
	file, err := os.Open("../../examples/data/hospital_dcs.txt")
	if err != nil {
		f.Fatal(err)
	}
	defer file.Close()
	for sc := bufio.NewScanner(file); sc.Scan(); {
		if _, body, ok := strings.Cut(sc.Text(), ": "); ok && !strings.HasPrefix(sc.Text(), "#") {
			f.Add(body)
		}
	}
	cfg := datagen.Config{Tuples: 20, Seed: 1}
	for _, g := range []*datagen.Generated{datagen.Hospital(cfg), datagen.Flights(cfg), datagen.Food(cfg), datagen.Physicians(cfg), datagen.Figure1()} {
		for _, c := range g.Constraints {
			f.Add(c.String())
		}
	}
	for _, s := range []string{
		`t1&EQ(t1.Path,"C:\dir")`, // a constant %q escapes
		"t1&EQ(t1.,x)",            // empty attribute name
		`t1&EQ(t1.A,"a\tb")&IQ(t1.B,"say \"hi\" & go")`,
		"t1&t2&SIM(t1.Name,t2.Name)&GTE(t1.Age,t2.Age)&LT(t1.Score, 10)",
		`t1 & t2 & lte( t1.Phone (home) , t2.Phone (home) ) & gt(t1.A,t1.B)`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := dc.Parse(s)
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted a constraint that fails Validate: %v", s, err)
		}
		back, err := dc.Parse(c.String())
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q does not parse: %v", s, c.String(), err)
		}
		if !reflect.DeepEqual(back, c) {
			t.Fatalf("Parse(%q) = %#v\nre-parsed from %q = %#v", s, c, c.String(), back)
		}
	})
}
