package server

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	alex "repro"
)

// countingWriter counts the Write calls reaching the connection.
type countingWriter struct{ writes int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return len(p), nil
}

// TestHandleZeroAllocs: once a connection's buffers are warm, GET,
// MGET×64 and SCAN 100 allocate nothing per command, and each reply
// reaches the connection in one write. A connection's set-up (scanner,
// writer, buffers grown by its first commands) is paid once, so the
// per-command count is the difference between a session that repeats
// a command set many times and one that runs it once, divided by the
// extra commands.
func TestHandleZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; assertions hold on normal builds only")
	}
	const n = 20000
	keys := make([]float64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = float64(i)*1.618 + math.Mod(float64(i)*0.337, 1.0)
		// Full-width payloads, as the benchmark's hashes are, push a
		// SCAN 100 reply past bufio's 4 KiB buffer.
		vals[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	idx, err := alex.LoadSharded(4, keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(idx)
	key := func(b []byte, k float64) []byte { return strconv.AppendFloat(b, k, 'g', -1, 64) }
	cases := []struct {
		name   string
		render func(b []byte, i int) []byte
	}{
		{"GET", func(b []byte, i int) []byte {
			// Every other key misses, so both reply forms run.
			return append(key(append(b, "GET "...), keys[i*97%n]+float64(i%2)/8), '\n')
		}},
		{"MGET×64", func(b []byte, i int) []byte {
			b = append(b, "MGET"...)
			for j := 0; j < 64; j++ {
				b = key(append(b, ' '), keys[(i*331+j*13)%n]+float64(j%2)/8)
			}
			return append(b, '\n')
		}},
		{"SCAN 100", func(b []byte, i int) []byte {
			return append(key(append(b, "SCAN "...), keys[i*211%n]), " 100\n"...)
		}},
	}
	for _, tc := range cases {
		var set []byte
		for i := 0; i < 16; i++ {
			set = tc.render(set, i)
		}
		const repeats = 64
		once, many := set, bytes.Repeat(set, 1+repeats)
		r, w := bytes.NewReader(nil), &countingWriter{}
		rw := struct {
			io.Reader
			io.Writer
		}{r, w}
		allocs := func(in []byte) float64 {
			return testing.AllocsPerRun(5, func() {
				r.Reset(in)
				srv.Handle(rw)
			})
		}
		if per := (allocs(many) - allocs(once)) / (repeats * 16); per != 0 {
			t.Errorf("%s: %v allocs per command, want 0", tc.name, per)
		}
		w.writes = 0
		r.Reset(many)
		srv.Handle(rw)
		if want := 16 * (1 + repeats); w.writes != want {
			t.Errorf("%s: %d writes for %d commands, want one each", tc.name, w.writes, want)
		}
	}
}

// TestScanKeyFormatMatchesPrintf: SCAN formats keys with
// strconv.AppendFloat(k, 'g', 17, 64); the protocol's documented form
// is %.17g, and the two must agree on every finite float64.
func TestScanKeyFormatMatchesPrintf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	check := func(k float64) {
		buf = strconv.AppendFloat(buf[:0], k, 'g', 17, 64)
		if want := fmt.Sprintf("%.17g", k); string(buf) != want {
			t.Fatalf("AppendFloat(%v) = %q, %%.17g = %q", k, buf, want)
		}
	}
	for _, k := range []float64{0, math.Copysign(0, -1), 0.1, 5e-324, math.MaxFloat64, -math.MaxFloat64, 1e21, 1e20, 123456789, 1e-7} {
		check(k)
	}
	for i := 0; i < 200000; i++ {
		if k := math.Float64frombits(rng.Uint64()); !math.IsNaN(k) && !math.IsInf(k, 0) {
			check(k)
		}
	}
}

// TestUnicodeSpaceIsNotASeparator pins the tokenizer: only ASCII
// whitespace separates arguments, so U+00A0 and U+0085 stay inside the
// token they touch.
func TestUnicodeSpaceIsNotASeparator(t *testing.T) {
	srv := New(alex.NewSync())
	got := transcript(srv, "SET 1 1\nGET\u00a01\nGET 1\u0085\n\u00a0\n")
	want := "OK inserted\n" +
		"ERR unknown command \"GET\\u00a01\"\n" +
		"ERR bad key: strconv.ParseFloat: parsing \"1\\u0085\": invalid syntax\n" +
		"ERR unknown command \"\\u00a0\"\n"
	if got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

// marker is a command line the fuzz harness puts after every input
// line; its reply delimits the reply block of the line before it.
const marker = "\x01"

var markerReply = fmt.Sprintf("ERR unknown command %q", marker)

// FuzzHandle feeds arbitrary lines through one connection. Whatever the
// bytes, Handle must not panic, must answer each non-blank line with
// exactly one reply block (one line, or lines closed by END) and a
// blank line with nothing, and must keep serving: the marker after
// every line gets its own reply.
func FuzzHandle(f *testing.F) {
	for _, seed := range []string{
		"GET 1",
		"SET 1 2\nGET 1\nDEL 1\nDEL 1",
		"MSET 1 1 2 2 3 3\nMGET 1 2 4\nSCAN 0 10\nMDEL 1 9\nLEN",
		"mget\t1  2\r\n\r\n\n  \t\nsCaN -1e300 3\r",
		"GET NaN\nSET Inf 1\nMGET 1 -inf\nSCAN 1e400 1\nSCAN 0 -1\nSCAN 0 x",
		"SET 0x1p3 5\nSET 1_0 1\nSCAN -1 99999\nSET 1 18446744073709551616",
		"BOGUS é\n\xff\xfe\x00\nGETS\nG",
		"LEN x\u00a0y\nGET 1\u00852\n\u00a0\nSET\u00a01 1",
		"STATS\nFLUSH\nSAVE\nBGSAVE\nWALSTATS\nHEALTH\nREPLINFO\nSNAPSHOT",
		"GET\nGET 1 2\nSET 1\nMSET 1\nMSET 1 2 3\nMDEL\nSCAN 1\nDEL 1 2",
		"QUIT\nGET 1\nREPLICATE 1 0\nLEN",
		"\v\f \t\nGET 1\v",
		"MSET" + strings.Repeat(" 1.5 7", 300) + "\nMGET" + strings.Repeat(" 1.5 2", 200),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		if len(data) > 1<<16 {
			return
		}
		var in strings.Builder
		var blank []bool
		for _, line := range strings.Split(data, "\n") {
			line = strings.ReplaceAll(line, marker, "")
			// QUIT and REPLICATE end the connection by design.
			if f := strings.Fields(strings.ToUpper(line)); len(f) > 0 && (strings.Contains(f[0], "QUIT") || strings.Contains(f[0], "REPLICATE")) {
				continue
			}
			in.WriteString(line + "\n" + marker + "\n")
			blank = append(blank, strings.Trim(line, " \t\v\f\r") == "")
		}
		if len(blank) == 0 {
			return
		}
		got := transcript(New(alex.NewSync(alex.WithSplitOnInsert())), in.String())
		if !strings.HasSuffix(got, "\n") {
			t.Fatalf("reply stream does not end in a newline: %q", got)
		}
		replies := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
		for i, isBlank := range blank {
			end := 0
			for end < len(replies) && replies[end] != markerReply {
				end++
			}
			if end == len(replies) {
				t.Fatalf("line %d: no marker reply; the connection stopped serving (replies %q)", i, replies)
			}
			block := replies[:end]
			switch {
			case isBlank && len(block) != 0:
				t.Fatalf("line %d is blank but got %q", i, block)
			case !isBlank && len(block) == 0:
				t.Fatalf("line %d got no reply", i)
			case len(block) > 1 && block[len(block)-1] != "END":
				t.Fatalf("line %d: multi-line reply not closed by END: %q", i, block)
			}
			replies = replies[end+1:]
		}
		if len(replies) != 0 {
			t.Fatalf("replies left over after the last line: %q", replies)
		}
	})
}
