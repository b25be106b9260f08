package jsonscan

import (
	"encoding/json"
	"math"
	"math/big"
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
	// what plan.EncodeJSON writes for generated plans: short integers,
	// 16- and 17-digit fractions, and small values behind leading zeros
	`3`, `113208`, `6000000`, `78.89035944513468`, `5771315.5282149315`, `0.9618859213691553`,
	`625.5340287783458`, `0.0006862424514776597`, `1881308.7759885038`, `0.000012345678901234567`,
	`4503599627370496.5`, `0.0000000000000000000000`, `-0.000`,
	// 10^64 wraps the uint64 mantissa to 0
	`1` + strings.Repeat(`0`, 64), `1` + strings.Repeat(`0`, 64) + `.0001`,
}

// eiselLemireDeclines reports whether lit has the shape Float hands to
// eiselLemire — no exponent, at most 19 significant and 22 fraction
// digits, a mantissa above 2^53 — and eiselLemire declined it, leaving
// it to ParseFloat.
func eiselLemireDeclines(lit string) bool {
	lit = strings.TrimPrefix(lit, "-")
	intPart, fracPart, _ := strings.Cut(lit, ".")
	digits := strings.TrimLeft(intPart+fracPart, "0")
	if strings.ContainsAny(lit, "eE") || len(digits) > 19 || len(fracPart) > 22 {
		return false
	}
	m, err := strconv.ParseUint("0"+digits, 10, 64)
	if err != nil {
		panic(err)
	}
	if m <= 1<<53 {
		return false
	}
	_, ok := eiselLemire(m, len(fracPart))
	return !ok
}

// placePoint writes digits with its last frac digits after a decimal
// point, padding with leading zeros ("0.000…") as needed.
func placePoint(digits string, frac int) string {
	if frac == 0 {
		return digits
	}
	if pad := frac - len(digits) + 1; pad > 0 {
		digits = strings.Repeat("0", pad) + digits
	}
	return digits[:len(digits)-frac] + "." + digits[len(digits)-frac:]
}

// halfwayLiterals returns the decimal literals of at most 19 significant
// digits that lie exactly halfway between two adjacent float64s:
// (2m+1)·2^(e-1) for a 53-bit mantissa m and exponent e, which in
// decimal is (2m+1)·5^(1-e) over 10^(1-e) when e < 1.
func halfwayLiterals() []string {
	var out []string
	for _, m := range []int64{1 << 52, 1<<52 + 1, 1<<52 + 12345, 3 << 51, 1<<53 - 2, 1<<53 - 1} {
		odd := big.NewInt(2*m + 1)
		for e := -6; e <= 12; e++ {
			n, frac := new(big.Int).Set(odd), 0
			if e >= 1 {
				n.Lsh(n, uint(e-1))
			} else {
				frac = 1 - e
				n.Mul(n, new(big.Int).Exp(big.NewInt(5), big.NewInt(int64(frac)), nil))
			}
			if digits := n.String(); len(digits) <= 19 {
				out = append(out, placePoint(digits, frac))
			}
		}
	}
	return out
}

// TestFloatAgreesWithStrconv walks the seeds, every integer mantissa
// around 2^53 over every fraction length around the 22-digit limit,
// 16- to 19-digit mantissas over 0 to 22 fraction digits, the exact
// halfway cases, and a deterministic spread of digit strings — and
// checks that the ParseFloat fallback for what eiselLemire declines is
// among the paths taken.
func TestFloatAgreesWithStrconv(t *testing.T) {
	declined := 0
	check := func(lit string) {
		t.Helper()
		checkFloat(t, []byte(lit), 0)
		checkFloat(t, []byte("-"+lit), 0)
		if eiselLemireDeclines(lit) {
			declined++
		}
	}
	for _, s := range floatSeeds {
		checkFloat(t, []byte(s), 0)
		checkFloat(t, []byte(`{"x":`+s+`}`), 5)
	}
	for m := uint64(1<<53 - 3); m <= 1<<53+3; m++ {
		for frac := 0; frac <= 25; frac++ {
			check(placePoint(strconv.FormatUint(m, 10), frac))
		}
	}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for n := 0; n < 400; n++ {
		for width := 16; width <= 19; width++ {
			digits := strconv.FormatUint(next()|1<<63, 10)[:width] // 19 digits, cut
			for frac := 0; frac <= 22; frac++ {
				check(placePoint(digits, frac))
			}
		}
	}
	for _, lit := range halfwayLiterals() {
		check(lit)
	}
	if declined == 0 {
		t.Fatal("eiselLemire declined no literal: the ParseFloat fallback went untested")
	}
	t.Logf("eiselLemire declined %d literals to ParseFloat", declined)
	for n := 0; n < 200000; n++ {
		next()
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

// TestPow10NegTruncatesMathBig holds the hard-coded table to its
// definition: 10^-k scaled into [2^127, 2^128), rounded down.
func TestPow10NegTruncatesMathBig(t *testing.T) {
	for k, got := range pow10Neg {
		ten := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(k)), nil)
		// 2^s / 10^k has 128 bits for s = 127 + ceil(log2(10^k)).
		s := 127 + ten.BitLen()
		if new(big.Int).Lsh(big.NewInt(1), uint(ten.BitLen()-1)).Cmp(ten) == 0 {
			s-- // 10^0 = 2^0
		}
		want := new(big.Int).Quo(new(big.Int).Lsh(big.NewInt(1), uint(s)), ten)
		hi := new(big.Int).Rsh(want, 64).Uint64()
		lo := new(big.Int).And(want, new(big.Int).SetUint64(math.MaxUint64)).Uint64()
		if want.BitLen() != 128 || got != [2]uint64{hi, lo} {
			t.Errorf("pow10Neg[%d] = %#x, want %#x (%d bits)", k, got, [2]uint64{hi, lo}, want.BitLen())
		}
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
