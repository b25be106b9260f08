package jsonscan

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
)

var values = []string{
	`0`, `-0`, `12`, `-1.5e+3`, `1E9`, `true`, `false`, `null`,
	`""`, `"a\"b"`, `"é\\"`, `"]}"`,
	`[]`, `[ ]`, `{}`, `{ }`, `[1,[2,"]"],{}]`, `{"a":{"b":[1,2,{"c":"}"}]},"d":null}`,
	"{ \"a\" :\t[ 1 ,\n2 ] }",
}

var invalid = []string{
	``, `-`, `01`, `1.`, `1e`, `.5`, `+1`, `tru`, `nul`, `"a`, `"\x"`, `"\u12g4"`, "\"\x01\"",
	`[1,]`, `[1 2]`, `{"a"}`, `{"a":}`, `{a:1}`, `{"a":1,}`, `[`, `{`, `]`,
}

// TestValidValueEndAgreesWithStdlib: the validating scanner accepts
// exactly the values json.Valid accepts, and stops exactly at their end.
func TestValidValueEndAgreesWithStdlib(t *testing.T) {
	for _, v := range values {
		if !json.Valid([]byte(v)) {
			t.Fatalf("test value %q is not valid JSON", v)
		}
		for _, tail := range []string{"", ",", " ]", "}"} {
			end, ok := ValidValueEnd([]byte(v+tail), 0, 0)
			if !ok || end != len(v) {
				t.Errorf("ValidValueEnd(%q) = %d, %v; want %d, true", v+tail, end, ok, len(v))
			}
		}
	}
	for _, v := range invalid {
		if json.Valid([]byte(v)) {
			t.Fatalf("test value %q is valid JSON", v)
		}
		if end, ok := ValidValueEnd([]byte(v), 0, 0); ok && end == len(v) {
			t.Errorf("ValidValueEnd accepted %q", v)
		}
	}
}

func TestValidValueEndDepthLimit(t *testing.T) {
	nest := func(n int) []byte { return []byte(strings.Repeat("[", n) + strings.Repeat("]", n)) }
	if _, ok := ValidValueEnd(nest(MaxDepth), 0, 0); !ok {
		t.Errorf("declined nesting %d", MaxDepth)
	}
	if _, ok := ValidValueEnd(nest(MaxDepth+2), 0, 0); ok {
		t.Errorf("followed nesting %d", MaxDepth+2)
	}
}

// TestSkipValue: on valid JSON the non-validating skipper finds the
// same extents as the validating scanner, at any depth; on garbage it
// stays inside the buffer.
func TestSkipValue(t *testing.T) {
	deep := strings.Repeat(`{"k":[`, 2000) + `1` + strings.Repeat(`]}`, 2000)
	for _, v := range append(values, deep) {
		for _, tail := range []string{"", ",1", " ]", "}"} {
			end, ok := SkipValue([]byte(v+tail), 0)
			if !ok || end != len(v) {
				t.Errorf("SkipValue(%.40q) = %d, %v; want %d, true", v+tail, end, ok, len(v))
			}
		}
	}
	for _, v := range append(invalid, `,`, ` 1`, `"\`, `[[`, `{"a":"`) {
		if end, ok := SkipValue([]byte(v), 0); ok && (end <= 0 || end > len(v)) {
			t.Errorf("SkipValue(%q) = %d outside the buffer", v, end)
		}
	}
}

func TestPlainString(t *testing.T) {
	for _, c := range []struct {
		in    string
		inner string
		ok    bool
	}{
		{`"abc",`, "abc", true},
		{`""`, "", true},
		{`"täble"`, "täble", true},
		{`"a\nb"`, "", false},
		{`"a\u0041"`, "", false},
		{"\"\xff\"", "", false},
		{"\"a\x1fb\"", "", false},
		{`"open`, "", false},
		{`x`, "", false},
		{``, "", false},
	} {
		inner, end, ok := PlainString([]byte(c.in), 0)
		if ok != c.ok || (ok && (string(inner) != c.inner || end != len(c.inner)+2)) {
			t.Errorf("PlainString(%q) = %q, %d, %v; want %q, %v", c.in, inner, end, ok, c.inner, c.ok)
		}
		if ok { // stdlib passes an accepted string through verbatim
			var s string
			if err := json.Unmarshal([]byte(c.in[:end]), &s); err != nil || s != c.inner {
				t.Errorf("stdlib decodes %q to %q, %v", c.in[:end], s, err)
			}
		}
	}
}

func TestInt(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int
		ok   bool
	}{
		{"0", 0, true}, {"-0", 0, true}, {"42", 42, true}, {"-7", -7, true},
		{"999999999999999999", 999999999999999999, true},
		{"1000000000000000000", 0, false}, // 19 digits: stdlib's to range-check
		{"1.0", 0, false}, {"1e3", 0, false}, {"-", 0, false}, {"", 0, false},
	} {
		if got, ok := Int([]byte(c.in)); got != c.want || ok != c.ok {
			t.Errorf("Int(%q) = %d, %v; want %d, %v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestKeyAndNext(t *testing.T) {
	b := []byte(`{"a" : 1 , "b":[2]}`)
	name, at, ok := Key(b, 1)
	if !ok || string(name) != "a" || b[at] != '1' {
		t.Fatalf("Key = %q, %d, %v", name, at, ok)
	}
	after, last, ok := Next(b, at+1, '}')
	if !ok || last || b[after] != '"' {
		t.Fatalf("Next after the first member = %d, %v, %v", after, last, ok)
	}
	if after, last, ok = Next(b, len(b)-1, '}'); !ok || !last || after != len(b) {
		t.Fatalf("Next at the closing brace = %d, %v, %v", after, last, ok)
	}
	for _, bad := range []string{`"a" 1`, `"a"`, `a:1`, `"a\n":1`, ``} {
		if _, _, ok := Key([]byte(bad), 0); ok {
			t.Errorf("Key accepted %q", bad)
		}
	}
	for _, bad := range []string{`]`, `x`, ``, `  `} {
		if _, _, ok := Next([]byte(bad), 0, '}'); ok {
			t.Errorf("Next accepted %q before a '}'", bad)
		}
	}
}

// checkFloat holds Float to the two steps it fuses: NumberEnd's extent
// and accept/decline, strconv.ParseFloat's bits.
func checkFloat(t *testing.T, b []byte, i int) {
	t.Helper()
	f, end, ok := Float(b, i)
	refEnd, refOK := NumberEnd(b, i)
	var ref float64
	if refOK {
		var err error
		ref, err = strconv.ParseFloat(string(b[i:refEnd]), 64)
		refOK = err == nil
	}
	if ok != refOK {
		t.Fatalf("Float(%q, %d) ok = %v, NumberEnd + ParseFloat %v", b, i, ok, refOK)
	}
	if ok && (end != refEnd || math.Float64bits(f) != math.Float64bits(ref)) {
		t.Fatalf("Float(%q, %d) = %v (%#x) to %d, want %v (%#x) to %d", b, i,
			f, math.Float64bits(f), end, ref, math.Float64bits(ref), refEnd)
	}
}

var floatSeeds = []string{
	`0`, `-0`, `0.10`, `-12.5`, `9007199254740991`, `9007199254740992`, `9007199254740993`,
	`900719925474099.2`, `12345678901234567`, `1234567890123456789`, `0.1234567890123456789`,
	`12345678901234567890`, `0.00000000000000000000001`, `1.0000000000000000000001`,
	`8.41e21`, `1e5`, `1E-5`, `1e+400`, `1e400`, `-1e400`, `4.9e-324`, `2.2250738585072011e-308`,
	`01`, `1.`, `1.e1`, `1e`, `1e+`, `-`, `.5`, `+1`, ``, `1,2`, `1]`, `1.5 `, `-a`,
}

// TestFloatAgreesWithStrconv walks the seeds, every integer mantissa
// around the exact path's 2^53 limit over every fraction length around
// its 10^22 limit, and a deterministic spread of digit strings.
func TestFloatAgreesWithStrconv(t *testing.T) {
	for _, s := range floatSeeds {
		checkFloat(t, []byte(s), 0)
		checkFloat(t, []byte(`{"x":`+s+`}`), 5)
	}
	for m := uint64(1<<53 - 3); m <= 1<<53+3; m++ {
		digits := strconv.FormatUint(m, 10)
		for frac := 0; frac <= 25; frac++ {
			lit := digits
			if pad := frac - len(digits) + 1; pad > 0 {
				lit = strings.Repeat("0", pad) + lit
			}
			if frac > 0 {
				lit = lit[:len(lit)-frac] + "." + lit[len(lit)-frac:]
			}
			checkFloat(t, []byte(lit), 0)
			checkFloat(t, []byte("-"+lit), 0)
		}
	}
	x := uint64(0x9e3779b97f4a7c15)
	for n := 0; n < 200000; n++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		lit := strconv.FormatUint(x>>(x%64), 10)
		if cut := int(x>>8) % (len(lit) + 1); cut < len(lit) {
			lit = lit[:cut] + "." + lit[cut:]
			if cut == 0 {
				lit = "0" + lit
			}
		}
		checkFloat(t, []byte(lit), 0)
	}
}

// FuzzScanFloat pins Float to NumberEnd + strconv.ParseFloat on
// arbitrary bytes: same accept/decline, same end, same bits.
func FuzzScanFloat(f *testing.F) {
	for _, s := range floatSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) { checkFloat(t, b, 0) })
}
