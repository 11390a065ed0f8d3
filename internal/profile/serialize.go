package profile

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// The on-disk profile format is a line-oriented text file, in the spirit
// of the IMPACT-I "Profiler to C Compiler interface" that let profile
// information flow between tool invocations:
//
//	ILPROF 1
//	runs 20
//	il 123456
//	control 2345
//	calls 678
//	returns 678
//	extern 90
//	ptr 2
//	maxstack 4096
//	truncated 0
//	func <name> <total-count>
//	site <id> <total-count>
//	target <site-id> <func-name> <total-count>
//
// Counts are totals across runs (averages are recomputed on load). The
// decoder is strict: every scalar directive may appear at most once, each
// func/site entry at most once, and any malformed or trailing field is a
// line-numbered error — a corrupt or concatenated profile must never
// silently last-write-win its way into the expander's arc weights. No
// count or total may be negative. `truncated` (runs whose Returns !=
// Calls) is optional on input for compatibility with pre-existing files.
// Older files may carry a `sampled <k>` line (k > 0, at most once), left
// by a since-removed sampling profiler; the reader checks it as strictly
// as ever and then drops it, and the writer never emits it.

const profileMagic = "ILPROF 1"

// WriteTo serializes the profile.
func (p *Profile) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	fmt.Fprintln(&sb, profileMagic)
	fmt.Fprintf(&sb, "runs %d\n", p.Runs)
	fmt.Fprintf(&sb, "il %d\n", p.TotalIL)
	fmt.Fprintf(&sb, "control %d\n", p.TotalControl)
	fmt.Fprintf(&sb, "calls %d\n", p.TotalCalls)
	fmt.Fprintf(&sb, "returns %d\n", p.TotalReturns)
	fmt.Fprintf(&sb, "extern %d\n", p.TotalExtern)
	fmt.Fprintf(&sb, "ptr %d\n", p.TotalPtr)
	fmt.Fprintf(&sb, "maxstack %d\n", p.MaxStack)
	fmt.Fprintf(&sb, "truncated %d\n", p.TotalTruncated)

	names := make([]string, 0, len(p.FuncCounts))
	for n := range p.FuncCounts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "func %s %d\n", n, p.FuncCounts[n])
	}
	ids := make([]int, 0, len(p.SiteCounts))
	for id := range p.SiteCounts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(&sb, "site %d %d\n", id, p.SiteCounts[id])
	}
	tids := make([]int, 0, len(p.PtrTargets))
	for id := range p.PtrTargets {
		if len(p.PtrTargets[id]) > 0 {
			tids = append(tids, id)
		}
	}
	sort.Ints(tids)
	for _, id := range tids {
		targets := p.PtrTargets[id]
		names := make([]string, 0, len(targets))
		for t := range targets {
			names = append(names, t)
		}
		sort.Strings(names)
		for _, t := range names {
			fmt.Fprintf(&sb, "target %d %s %d\n", id, t, targets[t])
		}
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// ReadProfile parses a serialized profile.
func ReadProfile(r io.Reader) (*Profile, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("profile: empty input")
	}
	if sc.Text() != profileMagic {
		return nil, fmt.Errorf("profile: bad magic %q", sc.Text())
	}
	p := NewProfile()
	lineNo := 1
	seenScalar := make(map[string]int)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		bad := func() error {
			return fmt.Errorf("profile: line %d: malformed %q", lineNo, line)
		}
		num := func(s string) (int64, error) {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return 0, bad()
			}
			return v, nil
		}
		count := func(s string) (int64, error) {
			v, err := num(s)
			if err == nil && v < 0 {
				return 0, fmt.Errorf("profile: line %d: negative count %d", lineNo, v)
			}
			return v, err
		}
		switch fields[0] {
		case "runs", "il", "control", "calls", "returns", "extern", "ptr", "maxstack", "truncated", "sampled":
			if len(fields) != 2 {
				return nil, bad()
			}
			if prev, dup := seenScalar[fields[0]]; dup {
				return nil, fmt.Errorf("profile: line %d: duplicate %q directive (first on line %d)",
					lineNo, fields[0], prev)
			}
			seenScalar[fields[0]] = lineNo
			if fields[0] == "sampled" {
				// Legacy: validated as before, then dropped.
				v, err := num(fields[1])
				if err != nil {
					return nil, err
				}
				if v <= 0 {
					return nil, fmt.Errorf("profile: line %d: non-positive sampled rate %d", lineNo, v)
				}
				continue
			}
			v, err := count(fields[1])
			if err != nil {
				return nil, err
			}
			switch fields[0] {
			case "runs":
				p.Runs = int(v)
			case "il":
				p.TotalIL = v
			case "control":
				p.TotalControl = v
			case "calls":
				p.TotalCalls = v
			case "returns":
				p.TotalReturns = v
			case "extern":
				p.TotalExtern = v
			case "ptr":
				p.TotalPtr = v
			case "maxstack":
				p.MaxStack = v
			case "truncated":
				p.TotalTruncated = v
			}
		case "func":
			if len(fields) != 3 {
				return nil, bad()
			}
			v, err := count(fields[2])
			if err != nil {
				return nil, err
			}
			if _, dup := p.FuncCounts[fields[1]]; dup {
				return nil, fmt.Errorf("profile: line %d: duplicate func entry %q", lineNo, fields[1])
			}
			p.FuncCounts[fields[1]] = v
		case "site":
			if len(fields) != 3 {
				return nil, bad()
			}
			id, err := num(fields[1])
			if err != nil {
				return nil, err
			}
			v, err := count(fields[2])
			if err != nil {
				return nil, err
			}
			if _, dup := p.SiteCounts[int(id)]; dup {
				return nil, fmt.Errorf("profile: line %d: duplicate site entry %d", lineNo, int(id))
			}
			p.SiteCounts[int(id)] = v
		case "target":
			if len(fields) != 4 {
				return nil, bad()
			}
			id, err := num(fields[1])
			if err != nil {
				return nil, err
			}
			v, err := count(fields[3])
			if err != nil {
				return nil, err
			}
			if _, dup := p.PtrTargets[int(id)][fields[2]]; dup {
				return nil, fmt.Errorf("profile: line %d: duplicate target entry %d %s", lineNo, int(id), fields[2])
			}
			m := p.PtrTargets[int(id)]
			if m == nil {
				m = make(map[string]int64)
				p.PtrTargets[int(id)] = m
			}
			m[fields[2]] = v
		default:
			return nil, fmt.Errorf("profile: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if p.Runs <= 0 {
		return nil, fmt.Errorf("profile: missing or non-positive runs count")
	}
	return p, nil
}
