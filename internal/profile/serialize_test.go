package profile

import (
	"strings"
	"testing"
)

func roundTrip(t *testing.T, p *Profile) *Profile {
	t.Helper()
	var sb strings.Builder
	if _, err := p.WriteTo(&sb); err != nil {
		t.Fatalf("write: %v", err)
	}
	q, err := ReadProfile(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("read: %v\nserialized:\n%s", err, sb.String())
	}
	return q
}

func TestSerializeRoundTrip(t *testing.T) {
	p := NewProfile()
	p.Add(sample(1000, 40, map[int]int64{1: 30, 7: 10}, map[string]int64{"f": 30, "main": 1}))
	p.Add(sample(3000, 60, map[int]int64{1: 50, 9: 10}, map[string]int64{"f": 50, "main": 1}))
	q := roundTrip(t, p)

	if q.Runs != p.Runs || q.TotalIL != p.TotalIL || q.TotalCalls != p.TotalCalls {
		t.Errorf("scalars differ: %+v vs %+v", q, p)
	}
	if q.AvgIL() != p.AvgIL() {
		t.Errorf("AvgIL %v != %v", q.AvgIL(), p.AvgIL())
	}
	for id := range p.SiteCounts {
		if q.SiteWeight(id) != p.SiteWeight(id) {
			t.Errorf("site %d weight %v != %v", id, q.SiteWeight(id), p.SiteWeight(id))
		}
	}
	for name := range p.FuncCounts {
		if q.FuncWeight(name) != p.FuncWeight(name) {
			t.Errorf("func %s weight differs", name)
		}
	}
}

func TestSerializeDeterministic(t *testing.T) {
	p := NewProfile()
	p.Add(sample(10, 5, map[int]int64{3: 1, 1: 2, 2: 3}, map[string]int64{"z": 1, "a": 2}))
	var s1, s2 strings.Builder
	p.WriteTo(&s1)
	p.WriteTo(&s2)
	if s1.String() != s2.String() {
		t.Error("serialization not deterministic")
	}
	// Sorted sections.
	out := s1.String()
	if strings.Index(out, "func a") > strings.Index(out, "func z") {
		t.Error("func entries not sorted")
	}
	if strings.Index(out, "site 1") > strings.Index(out, "site 3") {
		t.Error("site entries not sorted")
	}
}

func TestReadProfileErrors(t *testing.T) {
	cases := []string{
		"",
		"WRONG 1\nruns 1\n",
		"ILPROF 1\nruns x\n",
		"ILPROF 1\nruns 1\nfunc onlytwo\n",
		"ILPROF 1\nruns 1\nsite 1\n",
		"ILPROF 1\nruns 1\nmystery 4\n",
		"ILPROF 1\nil 5\n", // missing runs
	}
	for _, src := range cases {
		if _, err := ReadProfile(strings.NewReader(src)); err == nil {
			t.Errorf("ReadProfile(%q): expected error", src)
		}
	}
}

func TestReadProfileToleratesCommentsAndBlanks(t *testing.T) {
	src := "ILPROF 1\n# a comment\n\nruns 2\nil 100\n"
	p, err := ReadProfile(strings.NewReader(src))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if p.Runs != 2 || p.TotalIL != 100 {
		t.Errorf("parsed %+v", p)
	}
}

// TestReadProfileRejectsNegativeCounts: no count or total may be
// negative; the error names the offending line.
func TestReadProfileRejectsNegativeCounts(t *testing.T) {
	const head = "ILPROF 1\nruns 2\n"
	for _, c := range []struct{ in, want string }{
		{head + "site 4 -100\n", "line 3: negative count -100"},
		{head + "calls -3\n", "line 3: negative count -3"},
		{head + "func f -7\n", "line 3: negative count -7"},
		{head + "target 4 f -1\n", "line 3: negative count -1"},
		{"ILPROF 1\nruns -1\n", "line 2: negative count -1"},
	} {
		_, err := ReadProfile(strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ReadProfile(%q) = %v, want error containing %q", c.in, err, c.want)
		}
	}
}
