package interp

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"unicode/utf8"
)

// ExternImpl is the Go implementation of an external function. The
// compiler never sees these bodies — exactly the paper's "external
// function" situation, summarized by the $$$ node in the call graph.
type ExternImpl func(m *Machine, args []int64) (int64, error)

// Externs is the standard library available to MiniC programs. Names
// mirror the UNIX routines the paper's benchmarks leaned on.
var Externs = map[string]ExternImpl{
	// --- character and stream I/O ----------------------------------------
	"getchar": func(m *Machine, args []int64) (int64, error) {
		return m.Env.Getchar(), nil
	},
	"putchar": func(m *Machine, args []int64) (int64, error) {
		return m.Env.Putc(byte(args[0]), FdStdout), nil
	},
	"puts": func(m *Machine, args []int64) (int64, error) {
		s, err := m.mem.cstrBytes(args[0])
		if err != nil {
			return 0, err
		}
		m.Env.Stdout.Write(s)
		m.Env.Stdout.WriteByte('\n')
		return int64(len(s) + 1), nil
	},
	"printf": func(m *Machine, args []int64) (int64, error) {
		return m.doPrintf(FdStdout, args[0], args[1:])
	},
	"fprintf": func(m *Machine, args []int64) (int64, error) {
		return m.doPrintf(args[0], args[1], args[2:])
	},
	"sprintf": func(m *Machine, args []int64) (int64, error) {
		b, err := m.formatPrintf(args[1], args[2:])
		if err != nil {
			return 0, err
		}
		n := len(b)
		if err := m.mem.WriteBytes(args[0], append(b, 0)); err != nil {
			return 0, err
		}
		return int64(n), nil
	},
	"open": func(m *Machine, args []int64) (int64, error) {
		path, err := m.mem.CString(args[0])
		if err != nil {
			return 0, err
		}
		return m.Env.Open(path, args[1]), nil
	},
	"close": func(m *Machine, args []int64) (int64, error) {
		return m.Env.Close(args[0]), nil
	},
	"getc": func(m *Machine, args []int64) (int64, error) {
		return m.Env.Getc(args[0]), nil
	},
	"putc": func(m *Machine, args []int64) (int64, error) {
		return m.Env.Putc(byte(args[0]), args[1]), nil
	},
	"read": func(m *Machine, args []int64) (int64, error) {
		data := m.Env.ReadBytes(args[0], args[2])
		if data == nil {
			return -1, nil
		}
		if err := m.mem.WriteBytes(args[1], data); err != nil {
			return 0, err
		}
		return int64(len(data)), nil
	},
	"write": func(m *Machine, args []int64) (int64, error) {
		buf, err := m.mem.Bytes(args[1], args[2])
		if err != nil {
			return 0, err
		}
		return m.Env.WriteBytes(args[0], buf), nil
	},

	// --- memory management ------------------------------------------------
	"malloc": func(m *Machine, args []int64) (int64, error) {
		return m.mem.Alloc(args[0]), nil
	},
	"calloc": func(m *Machine, args []int64) (int64, error) {
		n, size := args[0], args[1]
		total := n * size
		if n != 0 && (total/n != size || (n == -1 && size == math.MinInt64)) {
			return 0, nil // n*size overflows: NULL, as in C
		}
		// Alloc hands out each heap byte once per run, and a byte
		// nothing has stored to reads as zero.
		return m.mem.Alloc(total), nil
	},
	"free": func(m *Machine, args []int64) (int64, error) {
		return 0, nil // bump allocator: free is a no-op
	},

	// --- string and memory routines ----------------------------------------
	"strlen": func(m *Machine, args []int64) (int64, error) {
		s, err := m.mem.cstrBytes(args[0])
		if err != nil {
			return 0, err
		}
		return int64(len(s)), nil
	},
	"strcmp": func(m *Machine, args []int64) (int64, error) {
		a, err := m.mem.cstrBytes(args[0])
		if err != nil {
			return 0, err
		}
		b, err := m.mem.cstrBytes(args[1])
		if err != nil {
			return 0, err
		}
		return int64(bytes.Compare(a, b)), nil
	},
	"strncmp": func(m *Machine, args []int64) (int64, error) {
		a, err := m.mem.cstrBytes(args[0])
		if err != nil {
			return 0, err
		}
		b, err := m.mem.cstrBytes(args[1])
		if err != nil {
			return 0, err
		}
		n := int(args[2])
		if len(a) > n {
			a = a[:n]
		}
		if len(b) > n {
			b = b[:n]
		}
		return int64(bytes.Compare(a, b)), nil
	},
	"strcpy": func(m *Machine, args []int64) (int64, error) {
		s, err := m.mem.cstrBytes(args[1])
		if err != nil {
			return 0, err
		}
		// Stage through the pooled buffer: the destination may overlap the
		// source, and WriteBytes must see the pre-overwrite bytes.
		buf := append(m.pieceBuf[:0], s...)
		buf = append(buf, 0)
		m.pieceBuf = buf[:0]
		if err := m.mem.WriteBytes(args[0], buf); err != nil {
			return 0, err
		}
		return args[0], nil
	},
	"strcat": func(m *Machine, args []int64) (int64, error) {
		d, err := m.mem.cstrBytes(args[0])
		if err != nil {
			return 0, err
		}
		dlen := int64(len(d))
		s, err := m.mem.cstrBytes(args[1])
		if err != nil {
			return 0, err
		}
		buf := append(m.pieceBuf[:0], s...)
		buf = append(buf, 0)
		m.pieceBuf = buf[:0]
		if err := m.mem.WriteBytes(args[0]+dlen, buf); err != nil {
			return 0, err
		}
		return args[0], nil
	},
	"strchr": func(m *Machine, args []int64) (int64, error) {
		s, err := m.mem.cstrBytes(args[0])
		if err != nil {
			return 0, err
		}
		c := byte(args[1])
		for i := 0; i < len(s); i++ {
			if s[i] == c {
				return args[0] + int64(i), nil
			}
		}
		if c == 0 {
			return args[0] + int64(len(s)), nil
		}
		return 0, nil
	},
	"memcpy": func(m *Machine, args []int64) (int64, error) {
		if args[2] <= 0 {
			return args[0], nil
		}
		src, err := m.mem.Bytes(args[1], args[2])
		if err != nil {
			return 0, err
		}
		// Stage through the pooled buffer so overlapping copies see the
		// pre-overwrite source bytes.
		tmp := append(m.pieceBuf[:0], src...)
		m.pieceBuf = tmp[:0]
		if err := m.mem.WriteBytes(args[0], tmp); err != nil {
			return 0, err
		}
		return args[0], nil
	},
	"memset": func(m *Machine, args []int64) (int64, error) {
		if args[2] <= 0 {
			return args[0], nil
		}
		buf, err := m.mem.Bytes(args[0], args[2])
		if err != nil {
			return 0, err
		}
		b := byte(args[1])
		for i := range buf {
			buf[i] = b
		}
		return args[0], nil
	},
	"memcmp": func(m *Machine, args []int64) (int64, error) {
		if args[2] <= 0 {
			return 0, nil
		}
		a, err := m.mem.Bytes(args[0], args[2])
		if err != nil {
			return 0, err
		}
		b, err := m.mem.Bytes(args[1], args[2])
		if err != nil {
			return 0, err
		}
		return int64(bytes.Compare(a, b)), nil
	},

	// --- conversions and misc ------------------------------------------------
	"atoi": func(m *Machine, args []int64) (int64, error) {
		s, err := m.mem.cstrBytes(args[0])
		if err != nil {
			return 0, err
		}
		i := 0
		for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		j := i
		if j < len(s) && (s[j] == '-' || s[j] == '+') {
			j++
		}
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
		v, _ := strconv.ParseInt(string(s[i:j]), 10, 64)
		return v, nil
	},
	"abs": func(m *Machine, args []int64) (int64, error) {
		if args[0] < 0 {
			return -args[0], nil
		}
		return args[0], nil
	},
	"rand": func(m *Machine, args []int64) (int64, error) {
		return m.Env.Rand(), nil
	},
	"srand": func(m *Machine, args []int64) (int64, error) {
		m.Env.Srand(args[0])
		return 0, nil
	},
	"exit": func(m *Machine, args []int64) (int64, error) {
		return 0, &exitError{code: args[0]}
	},
	"abort": func(m *Machine, args []int64) (int64, error) {
		return 0, fmt.Errorf("abort() called")
	},
}

// ExternNames returns the sorted names of available externs (for tools and
// for generating extern declaration headers).
func ExternNames() []string {
	names := make([]string, 0, len(Externs))
	for n := range Externs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// doPrintf formats and writes to a descriptor.
func (m *Machine) doPrintf(fd, fmtAddr int64, args []int64) (int64, error) {
	b, err := m.formatPrintf(fmtAddr, args)
	if err != nil {
		return 0, err
	}
	return m.Env.WriteBytes(fd, b), nil
}

// formatPrintf implements the printf subset %d %u %x %c %s %% with
// optional width (e.g. %6d, %-8s, %04d). It formats into the machine's
// pooled buffer — the printf family is the hottest extern path, and
// building the result with strconv.Append* keeps a steady-state run
// allocation-free. The returned slice is valid until the next extern
// call; callers write it out immediately.
func (m *Machine) formatPrintf(fmtAddr int64, args []int64) ([]byte, error) {
	f, err := m.mem.cstrBytes(fmtAddr)
	if err != nil {
		return nil, err
	}
	out := m.fmtBuf[:0]
	ai := 0
	nextArg := func() int64 {
		if ai < len(args) {
			v := args[ai]
			ai++
			return v
		}
		return 0
	}
	for i := 0; i < len(f); i++ {
		if f[i] != '%' {
			out = append(out, f[i])
			continue
		}
		i++
		if i >= len(f) {
			break
		}
		if f[i] == '%' {
			out = append(out, '%')
			continue
		}
		// Parse flags and width.
		leftAlign := false
		zeroPad := false
		if f[i] == '-' {
			leftAlign = true
			i++
		}
		if i < len(f) && f[i] == '0' {
			zeroPad = true
			i++
		}
		width := 0
		for i < len(f) && f[i] >= '0' && f[i] <= '9' {
			width = width*10 + int(f[i]-'0')
			i++
		}
		if i < len(f) && f[i] == 'l' { // %ld treated as %d
			i++
		}
		if i >= len(f) {
			break
		}
		var piece []byte
		pb := m.pieceBuf[:0]
		switch f[i] {
		case 'd', 'u':
			pb = strconv.AppendInt(pb, nextArg(), 10)
			piece = pb
		case 'x':
			pb = strconv.AppendUint(pb, uint64(nextArg()), 16)
			piece = pb
		case 'o':
			pb = strconv.AppendUint(pb, uint64(nextArg()), 8)
			piece = pb
		case 'c':
			pb = utf8.AppendRune(pb, rune(byte(nextArg())))
			piece = pb
		case 's':
			s, err := m.mem.cstrBytes(nextArg())
			if err != nil {
				m.fmtBuf = out[:0]
				return nil, err
			}
			piece = s
		default:
			pb = append(pb, '%', f[i])
			piece = pb
		}
		m.pieceBuf = pb[:0]
		if pad := width - len(piece); pad > 0 {
			padByte := byte(' ')
			if !leftAlign && zeroPad {
				padByte = '0'
			}
			if leftAlign {
				out = append(out, piece...)
				for ; pad > 0; pad-- {
					out = append(out, ' ')
				}
				continue
			}
			for ; pad > 0; pad-- {
				out = append(out, padByte)
			}
		}
		out = append(out, piece...)
	}
	m.fmtBuf = out
	return out, nil
}
