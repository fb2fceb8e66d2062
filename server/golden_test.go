package server

// Golden transcripts: the exact bytes the protocol answers, command by
// command, including every error text. Each transcript runs on a fresh
// store through Handle over an in-memory stream, so framing (one reply
// block per command, nothing for blank lines, nothing after QUIT or
// REPLICATE) is checked byte for byte too.
//
// A few fields belong to other layers (index sizes, WAL counters,
// replication positions, snapshot bodies) and would couple this test to
// them; the want strings mark those with placeholders:
//
//	{n}     a decimal number
//	{text}  any text up to the end of the line
//	{body}  any bytes (a binary payload)

import (
	"bytes"
	"fmt"
	"io"
	"regexp"
	"strings"
	"testing"

	alex "repro"
	"repro/internal/faultfs"
)

type golden struct {
	name  string
	store string // "" in-memory, "durable", "readonly" or "degrading"
	in    string
	want  string
}

var goldenTranscripts = []golden{
	{
		name: "point commands",
		in:   "GET 1\nSET 1 100\nSET 1 200\nGET 1\nDEL 1\nDEL 1\nGET 1\nLEN\n",
		want: "NOTFOUND\nOK inserted\nOK updated\nVALUE 200\nOK\nNOTFOUND\nNOTFOUND\nLEN 0\n",
	},
	{
		name: "batch commands",
		in:   "MSET 10 1 20 2 30 3\nMSET 10 100 40 4\nMGET 10 20 25 40\nMGET 99\nMDEL 10 25 30\nMDEL 77\nLEN\n",
		want: "OK 3\nOK 1\nVALUE 100\nVALUE 2\nNOTFOUND\nVALUE 4\nEND\nNOTFOUND\nEND\nOK 2\nOK 0\nLEN 2\n",
	},
	{
		name: "scan",
		in:   "MSET 1 10 2 20 3 30\nSCAN 1.5 2\nSCAN 0 0\nSCAN 9 5\nSCAN 0 +1\nSCAN -1e300 999999\n",
		want: "OK 3\nKEY 2 20\nKEY 3 30\nEND\nEND\nEND\nKEY 1 10\nEND\nKEY 1 10\nKEY 2 20\nKEY 3 30\nEND\n",
	},
	{
		// SCAN prints keys with 17 significant digits (%.17g), so every
		// float64 round-trips, at the price of 0.1's binary expansion.
		name: "scan key formatting",
		in: "MSET -0 1 5e-324 2 0.1 3 1.7976931348623157e308 4 -2.5 5 1e21 6 123456789 7 0x1p-3 8\n" +
			"SCAN -1e308 10\n",
		want: "OK 8\n" +
			"KEY -2.5 5\nKEY -0 1\nKEY 4.9406564584124654e-324 2\nKEY 0.10000000000000001 3\nKEY 0.125 8\n" +
			"KEY 123456789 7\nKEY 1e+21 6\nKEY 1.7976931348623157e+308 4\nEND\n",
	},
	{
		name: "verbs are case-insensitive",
		in:   "set 1 5\nGet 1\nmget 1 2\nMget 1\nsCaN 0 1\nmSeT 2 6\nmdel 2\ndel 1\nlen\nhealth\nquit\n",
		want: "OK inserted\nVALUE 5\nVALUE 5\nNOTFOUND\nEND\nVALUE 5\nEND\nKEY 1 5\nEND\nOK 1\nOK 1\nOK\nLEN 0\nOK\nBYE\n",
	},
	{
		name: "tabs, repeated spaces, CRLF and blank lines",
		in:   "  SET\t1  10\t\r\n\r\n\n \t \nGET 1\r\nMGET\t1\t\t2 \r\n\tSCAN   0 \t 5\n\v\f\nLEN\n",
		want: "OK inserted\nVALUE 10\nVALUE 10\nNOTFOUND\nEND\nKEY 1 10\nEND\nLEN 1\n",
	},
	{
		// Under ASCII-whitespace splitting U+00A0 and U+0085 are part of
		// a token, not separators; these lines sit where both splittings
		// give the same reply.
		name: "non-ASCII spaces inside tokens",
		in:   "SET 1 1\nLEN x\u00a0y\nGET 1 2\u00a03\nSET 1 2 3\u0085 4\nSCAN 1 2 x\u00a0y\nMSET 1 2 3\u00a0\n",
		want: "OK inserted\nLEN 1\nERR wrong argument count\nERR usage: SET <key> <value>\n" +
			"ERR usage: SCAN <start> <n>\nERR usage: MSET <key> <value> [<key> <value> ...]\n",
	},
	{
		name: "non-finite and unparsable keys",
		in: "GET NaN\nGET Inf\nGET -inf\nGET +Infinity\nGET 1e400\nGET abc\nGET 1__0\nSET nan 1\nDEL Inf\n" +
			"MGET 1 NaN\nMSET 1 1 Inf 2\nMDEL -Inf\nMDEL 1 x\nSCAN NaN 1\nSCAN 1e400 1\nLEN\n",
		want: "ERR bad key: \"NaN\" is not finite\n" +
			"ERR bad key: \"Inf\" is not finite\n" +
			"ERR bad key: \"-inf\" is not finite\n" +
			"ERR bad key: \"+Infinity\" is not finite\n" +
			"ERR bad key: strconv.ParseFloat: parsing \"1e400\": value out of range\n" +
			"ERR bad key: strconv.ParseFloat: parsing \"abc\": invalid syntax\n" +
			"ERR bad key: strconv.ParseFloat: parsing \"1__0\": invalid syntax\n" +
			"ERR bad key: \"nan\" is not finite\n" +
			"ERR bad key: \"Inf\" is not finite\n" +
			"ERR bad key: \"NaN\" is not finite\n" +
			"ERR bad key: \"Inf\" is not finite\n" +
			"ERR bad key: \"-Inf\" is not finite\n" +
			"ERR bad key: strconv.ParseFloat: parsing \"x\": invalid syntax\n" +
			"ERR bad start: bad key: \"NaN\" is not finite\n" +
			"ERR bad start: bad key: strconv.ParseFloat: parsing \"1e400\": value out of range\n" +
			"LEN 0\n",
	},
	{
		// Hexadecimal floats are valid keys: 0x1p3 is 8.
		name: "hex float key",
		in:   "SET 0x1p3 5\nGET 8\nGET 0X1P+3\n",
		want: "OK inserted\nVALUE 5\nVALUE 5\n",
	},
	{
		name: "bad values and counts",
		in: "SET 1 -1\nSET 1 1.5\nSET 1 18446744073709551616\nMSET 1 x\nMSET 1 1 2 -2\n" +
			"SCAN 1 x\nSCAN 1 -2\nSCAN 1 99999999999999999999\nSCAN 1 2.0\nLEN\n",
		want: "ERR bad value: strconv.ParseUint: parsing \"-1\": invalid syntax\n" +
			"ERR bad value: strconv.ParseUint: parsing \"1.5\": invalid syntax\n" +
			"ERR bad value: strconv.ParseUint: parsing \"18446744073709551616\": value out of range\n" +
			"ERR bad value: strconv.ParseUint: parsing \"x\": invalid syntax\n" +
			"ERR bad value: strconv.ParseUint: parsing \"-2\": invalid syntax\n" +
			"ERR bad count\nERR bad count\nERR bad count\nERR bad count\nLEN 0\n",
	},
	{
		name: "wrong argument counts",
		in: "GET\nGET 1 2\nSET\nSET 1\nSET 1 2 3\nDEL\nDEL 1 2\nMGET\nMSET\nMSET 1\nMSET 1 2 3\nMDEL\n" +
			"SCAN\nSCAN 1\nSCAN 1 2 3\n",
		want: "ERR wrong argument count\nERR wrong argument count\n" +
			"ERR usage: SET <key> <value>\nERR usage: SET <key> <value>\nERR usage: SET <key> <value>\n" +
			"ERR wrong argument count\nERR wrong argument count\n" +
			"ERR wrong argument count\n" +
			"ERR usage: MSET <key> <value> [<key> <value> ...]\n" +
			"ERR usage: MSET <key> <value> [<key> <value> ...]\n" +
			"ERR usage: MSET <key> <value> [<key> <value> ...]\n" +
			"ERR wrong argument count\n" +
			"ERR usage: SCAN <start> <n>\nERR usage: SCAN <start> <n>\nERR usage: SCAN <start> <n>\n",
	},
	{
		name: "unknown commands",
		in:   "BOGUS\nbogus x y\ngét 1\n\xffX\nGETS 1\nG\n",
		want: "ERR unknown command \"BOGUS\"\nERR unknown command \"BOGUS\"\nERR unknown command \"GÉT\"\n" +
			"ERR unknown command \"�X\"\nERR unknown command \"GETS\"\nERR unknown command \"G\"\n",
	},
	{
		name: "cold commands on an in-memory store",
		in:   "SET 1 1\nSTATS\nFLUSH\nSAVE\nBGSAVE\nWALSTATS\nHEALTH\nREPLINFO\nSNAPSHOT\nLEN extra args\n",
		want: "OK inserted\nSTATS {n} {n} {n} {n}\nOK\nERR store is not durable\nERR store is not durable\n" +
			"ERR store is not durable\nOK\nERR store does not replicate\nERR store does not replicate\nLEN 1\n",
	},
	{
		name: "QUIT ends the connection",
		in:   "QUIT\nGET 1\n",
		want: "BYE\n",
	},
	{
		name: "REPLICATE on an in-memory store ends the connection",
		in:   "replicate 1 0\nGET 1\n",
		want: "ERR store does not replicate\n",
	},
	{
		name: "line over the 1 MiB cap",
		in:   "GET 1\nMGET" + strings.Repeat(" 1", 1<<19) + "\nGET 1\n",
		want: "NOTFOUND\nERR bufio.Scanner: token too long\n",
	},
	{
		name:  "read-only replica",
		store: "readonly",
		in:    "SET 1 1\nDEL 1\nMSET 1 1\nMDEL 1\nSAVE\nBGSAVE\nset 1\nGET 1\nMGET 1\nHEALTH\n",
		want: strings.Repeat("ERR read-only replica: writes go to the primary\n", 7) +
			"NOTFOUND\nNOTFOUND\nEND\nOK read-only\n",
	},
	{
		name:  "durable commands",
		store: "durable",
		in:    "SET 1 10\nFLUSH\nSAVE\nBGSAVE\nWALSTATS\nHEALTH\nREPLINFO\nSNAPSHOT\nLEN\n",
		want: "OK inserted\nOK\nOK\nOK scheduled\nWAL {n} {n} {n} {n} {n} {n} {n} 0\nOK\n" +
			"ROLE primary\nPOSITION {n} {n}\nCHECKPOINTS {n}\nEND\nSNAPSHOT {n} {n}\n{body}LEN 1\n",
	},
	{
		name:  "REPLICATE usage",
		store: "durable",
		in:    "REPLICATE 1\nGET 1\n",
		want:  "ERR usage: REPLICATE <segment> <offset>\n",
	},
	{
		name:  "REPLICATE bad position",
		store: "durable",
		in:    "Replicate x 0\n",
		want:  "ERR bad position\n",
	},
	{
		name:  "REPLICATE negative offset",
		store: "durable",
		in:    "REPLICATE 1 -1\n",
		want:  "ERR bad position\n",
	},
	{
		name:  "REPLICATE beyond the log head",
		store: "durable",
		in:    "REPLICATE 9 0\n",
		want:  "ERR {text}\n",
	},
	{
		name:  "REPLICATE from truncated history",
		store: "durable",
		in:    "SET 1 1\nSAVE\nREPLICATE 1 0\nGET 1\n",
		want:  "OK inserted\nOK\nTRUNCATED\n",
	},
	{
		// The stream ends when the input does; nothing was written, so
		// only the STREAM header goes out.
		name:  "REPLICATE streams",
		store: "durable",
		in:    "replicate 1 0\nGET 1\n",
		want:  "STREAM\n",
	},
	{
		// The second write hits the scripted fsync failure: its reply is
		// the degradation itself (recovered from the store's panic), and
		// every later write is refused up front with the same cause.
		name:  "degraded store",
		store: "degrading",
		in:    "SET 1 10\nSET 2 20\nSET 3 30\nDEL 1\nMSET 4 4\nMDEL 1\nset\nGET 1\nWALSTATS\nHEALTH\nFLUSH\n",
		want: "OK inserted\n" + strings.Repeat("ERR degraded: {text}\n", 6) +
			"VALUE 10\nWAL {n} {n} {n} {n} {n} {n} {n} 1\nDEGRADED {text}\nERR {text}\n",
	},
}

// goldenStore builds the store a transcript names.
func goldenStore(t *testing.T, kind string) *Server {
	t.Helper()
	switch kind {
	case "":
		return New(alex.NewSync(alex.WithSplitOnInsert()))
	case "readonly":
		srv := New(alex.NewSync(alex.WithSplitOnInsert()))
		srv.ReadOnly = true
		return srv
	case "durable", "degrading":
		opts := []alex.DurableOption{alex.WithCheckpointEvery(0), alex.WithFsyncPolicy(alex.FsyncAlways)}
		if kind == "degrading" {
			inj := faultfs.New(faultfs.OS)
			inj.FailNth(faultfs.OpSync, "wal-", 2, fmt.Errorf("scripted fsync failure"))
			opts = append(opts, alex.WithFilesystem(inj))
		}
		idx, err := alex.OpenDurable(t.TempDir(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { idx.Close() })
		return New(idx)
	}
	t.Fatalf("unknown store kind %q", kind)
	return nil
}

// goldenPattern compiles a want string with placeholders into an
// anchored regexp.
func goldenPattern(want string) *regexp.Regexp {
	p := regexp.QuoteMeta(want)
	p = strings.ReplaceAll(p, `\{n\}`, "[0-9]+")
	p = strings.ReplaceAll(p, `\{text\}`, "[^\n]*")
	p = strings.ReplaceAll(p, `\{body\}`, "(?s:.*)")
	return regexp.MustCompile(`\A` + p + `\z`)
}

// transcript runs in through one Handle call and returns every byte
// written back.
func transcript(srv *Server, in string) string {
	var out bytes.Buffer
	srv.Handle(struct {
		io.Reader
		io.Writer
	}{strings.NewReader(in), &out})
	return out.String()
}

func TestGoldenTranscripts(t *testing.T) {
	for _, g := range goldenTranscripts {
		t.Run(g.name, func(t *testing.T) {
			got := transcript(goldenStore(t, g.store), g.in)
			if !goldenPattern(g.want).MatchString(got) {
				t.Errorf("in:\n%q\ngot:\n%q\nwant:\n%q", trimForLog(g.in), trimForLog(got), g.want)
			}
		})
	}
}

func trimForLog(s string) string {
	if len(s) > 400 {
		return s[:400] + "…"
	}
	return s
}
