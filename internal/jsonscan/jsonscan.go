// Package jsonscan holds the byte-level JSON primitives the
// hand-written codecs share (the request envelope in internal/serve,
// the plan wire format in internal/plan, the response encoder in
// internal/serve).
//
// Those codecs all follow one contract: handle the canonical shape in a
// single pass and decline — report ok=false, never an error — on
// anything else, so the caller reruns encoding/json and every slow or
// ambiguous input keeps stdlib's semantics, error text and bytes. The
// scanning primitives here are therefore exactly as strict as stdlib's
// validity scan — an extent they accept is an extent json.Valid
// accepts — and the append primitives write exactly what json.Marshal
// writes for the values they accept.
package jsonscan

import (
	"math"
	"math/bits"
	"strconv"
	"unicode/utf8"
)

// MaxDepth bounds the nesting the recursive scanners follow,
// comfortably under stdlib's 10000-deep limit; deeper inputs decline.
const MaxDepth = 512

// SkipWS returns the index of the first non-whitespace byte at or
// after i.
func SkipWS(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// Key scans an object member's `"name" :` at i and returns the name
// (aliasing b; a name with an escape declines, as it cannot equal a
// known key byte for byte) and the index of the value that follows.
func Key(b []byte, i int) (name []byte, valueAt int, ok bool) {
	name, end, ok := PlainString(b, i)
	if !ok {
		return nil, 0, false
	}
	i = SkipWS(b, end)
	if i >= len(b) || b[i] != ':' {
		return nil, 0, false
	}
	return name, SkipWS(b, i+1), true
}

// Next steps over the separator after an object member or array
// element ending at i: a comma (more follow, the next one starting at
// after) or the closing delimiter (last; after is one past it).
func Next(b []byte, i int, closing byte) (after int, last, ok bool) {
	i = SkipWS(b, i)
	if i >= len(b) {
		return 0, false, false
	}
	switch b[i] {
	case ',':
		return SkipWS(b, i+1), false, true
	case closing:
		return i + 1, true, true
	}
	return 0, false, false
}

// ValidValueEnd returns the index one past the JSON value starting at
// i, fully validating it — interior strings, numbers, and structure
// included. depth is the nesting already entered.
func ValidValueEnd(b []byte, i, depth int) (int, bool) {
	if i >= len(b) || depth > MaxDepth {
		return 0, false
	}
	switch c := b[i]; {
	case c == '"':
		return StringEnd(b, i)
	case c == '{':
		i = SkipWS(b, i+1)
		if i < len(b) && b[i] == '}' {
			return i + 1, true
		}
		for {
			if i >= len(b) || b[i] != '"' {
				return 0, false
			}
			j, ok := StringEnd(b, i)
			if !ok {
				return 0, false
			}
			i = SkipWS(b, j)
			if i >= len(b) || b[i] != ':' {
				return 0, false
			}
			i, ok = ValidValueEnd(b, SkipWS(b, i+1), depth+1)
			if !ok {
				return 0, false
			}
			i = SkipWS(b, i)
			if i >= len(b) {
				return 0, false
			}
			switch b[i] {
			case ',':
				i = SkipWS(b, i+1)
			case '}':
				return i + 1, true
			default:
				return 0, false
			}
		}
	case c == '[':
		i = SkipWS(b, i+1)
		if i < len(b) && b[i] == ']' {
			return i + 1, true
		}
		for {
			var ok bool
			i, ok = ValidValueEnd(b, i, depth+1)
			if !ok {
				return 0, false
			}
			i = SkipWS(b, i)
			if i >= len(b) {
				return 0, false
			}
			switch b[i] {
			case ',':
				i = SkipWS(b, i+1)
			case ']':
				return i + 1, true
			default:
				return 0, false
			}
		}
	case c == 't':
		return litEnd(b, i, "true")
	case c == 'f':
		return litEnd(b, i, "false")
	case c == 'n':
		return litEnd(b, i, "null")
	default:
		return NumberEnd(b, i)
	}
}

func litEnd(b []byte, i int, lit string) (int, bool) {
	if i+len(lit) > len(b) || string(b[i:i+len(lit)]) != lit {
		return 0, false
	}
	return i + len(lit), true
}

// SkipValue returns the index one past the value starting at i in
// bytes encoding/json has already scanned: it balances brackets and
// steps over strings, validating nothing and following any depth
// without recursion. On bytes that are not valid JSON it may return a
// wrong extent or ok=false, never an index outside b.
func SkipValue(b []byte, i int) (int, bool) {
	start, depth := i, 0
	for i < len(b) {
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
			if i >= len(b) {
				return 0, false
			}
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		default:
			if depth == 0 { // number or literal: runs to the next delimiter
				for i < len(b) && !isDelim(b[i]) {
					i++
				}
				return i, i > start
			}
		}
		i++
		if depth <= 0 {
			return i, depth == 0
		}
	}
	return 0, false
}

func isDelim(c byte) bool {
	switch c {
	case ',', ']', '}', ' ', '\t', '\n', '\r':
		return true
	}
	return false
}

// NumberEnd validates a JSON number per the grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func NumberEnd(b []byte, i int) (int, bool) {
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && b[j] >= '1' && b[j] <= '9':
		for j < len(b) && isDigit(b[j]) {
			j++
		}
	default:
		return 0, false
	}
	if j < len(b) && b[j] == '.' {
		j++
		if j >= len(b) || !isDigit(b[j]) {
			return 0, false
		}
		for j < len(b) && isDigit(b[j]) {
			j++
		}
	}
	return exponentEnd(b, j)
}

// exponentEnd steps over the number grammar's optional last part,
// ([eE][+-]?[0-9]+)?, at j.
func exponentEnd(b []byte, j int) (int, bool) {
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		if j >= len(b) || !isDigit(b[j]) {
			return 0, false
		}
		for j < len(b) && isDigit(b[j]) {
			j++
		}
	}
	return j, true
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// Float scans the JSON number at i — NumberEnd's grammar — and returns
// its float64 value and the index one past it, accumulating the decimal
// mantissa m in the loop that checks the digits. A literal without an
// exponent, of at most 19 significant digits (so m is exact in a
// uint64) and at most 22 fraction digits k, converts from m alone:
// float64(m) / 10^k when m ≤ 2^53, both operands exact so the one IEEE
// division rounds correctly (Clinger 1990), and eiselLemire above that.
// ParseFloat converts every other literal and the halfway cases
// eiselLemire declines, and an out-of-range literal declines.
// FuzzScanFloat pins the bits to ParseFloat's.
func Float(b []byte, i int) (f float64, end int, ok bool) {
	j := i
	neg := j < len(b) && b[j] == '-'
	if neg {
		j++
	}
	var m uint64 // wraps past 19 significant digits, which the count below hands to ParseFloat
	first := j
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && b[j] >= '1' && b[j] <= '9':
		for ; j < len(b) && isDigit(b[j]); j++ {
			m = m*10 + uint64(b[j]-'0')
		}
	default:
		return 0, 0, false
	}
	digits, frac := j-first, 0 // digits from the first nonzero one on
	if b[first] == '0' {
		digits = 0
	}
	if j < len(b) && b[j] == '.' {
		j++
		start := j
		if digits == 0 { // zeros right after "0." leave m at 0
			for j < len(b) && b[j] == '0' {
				j++
			}
		}
		zeros := j - start
		for ; j < len(b) && isDigit(b[j]); j++ {
			m = m*10 + uint64(b[j]-'0')
		}
		if frac = j - start; frac == 0 {
			return 0, 0, false
		}
		digits += frac - zeros
	}
	if end, ok = exponentEnd(b, j); !ok {
		return 0, 0, false
	}
	if end == j && digits <= 19 && frac < len(pow10) {
		if m <= 1<<53 {
			f = float64(m)
			if frac > 0 {
				f /= pow10[frac]
			}
		} else if f, ok = eiselLemire(m, frac); !ok {
			return parseFloat(b, i, end)
		}
		if neg {
			f = -f
		}
		return f, end, true
	}
	return parseFloat(b, i, end)
}

// parseFloat is Float's conversion of the literal b[i:end] when its
// own paths do not take it.
func parseFloat(b []byte, i, end int) (float64, int, bool) {
	f, err := strconv.ParseFloat(string(b[i:end]), 64)
	return f, end, err == nil
}

// eiselLemire returns m·10^-k correctly rounded, or ok=false when the
// 128-bit product cannot tell which way a halfway case rounds (Lemire,
// "Number Parsing at a Gigabyte per Second", 2021; strconv's own first
// path). 0 < m < 2^64 and k ≤ 22 keep the value inside float64's
// normal range, so no overflow or subnormal check is needed.
func eiselLemire(m uint64, k int) (float64, bool) {
	clz := bits.LeadingZeros64(m)
	m <<= clz
	exp2 := uint64(217706*-k>>16+64+1023) - uint64(clz) // 217706/2^16 ≈ log2(10)
	pow := &pow10Neg[k]
	hi, lo := bits.Mul64(m, pow[0])
	if hi&0x1FF == 0x1FF && lo+m < m { // the truncated low word may carry
		yHi, yLo := bits.Mul64(m, pow[1])
		mergedHi, mergedLo := hi, lo+yHi
		if mergedLo < lo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+m < m {
			return 0, false
		}
		hi, lo = mergedHi, mergedLo
	}
	msb := hi >> 63
	mant := hi >> (msb + 9) // 54 bits: the 53 kept and the rounding bit
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 { // exactly halfway?
		return 0, false
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	return math.Float64frombits(exp2<<52 | mant&(1<<52-1)), true
}

// pow10Neg[k] is 10^-k scaled into [2^127, 2^128) and truncated, as
// {high word, low word}.
var pow10Neg = [len(pow10)][2]uint64{
	{0x8000000000000000, 0x0000000000000000}, // 1e-0
	{0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC}, // 1e-1
	{0xA3D70A3D70A3D70A, 0x3D70A3D70A3D70A3}, // 1e-2
	{0x83126E978D4FDF3B, 0x645A1CAC083126E9}, // 1e-3
	{0xD1B71758E219652B, 0xD3C36113404EA4A8}, // 1e-4
	{0xA7C5AC471B478423, 0x0FCF80DC33721D53}, // 1e-5
	{0x8637BD05AF6C69B5, 0xA63F9A49C2C1B10F}, // 1e-6
	{0xD6BF94D5E57A42BC, 0x3D32907604691B4C}, // 1e-7
	{0xABCC77118461CEFC, 0xFDC20D2B36BA7C3D}, // 1e-8
	{0x89705F4136B4A597, 0x31680A88F8953030}, // 1e-9
	{0xDBE6FECEBDEDD5BE, 0xB573440E5A884D1B}, // 1e-10
	{0xAFEBFF0BCB24AAFE, 0xF78F69A51539D748}, // 1e-11
	{0x8CBCCC096F5088CB, 0xF93F87B7442E45D3}, // 1e-12
	{0xE12E13424BB40E13, 0x2865A5F206B06FB9}, // 1e-13
	{0xB424DC35095CD80F, 0x538484C19EF38C94}, // 1e-14
	{0x901D7CF73AB0ACD9, 0x0F9D37014BF60A10}, // 1e-15
	{0xE69594BEC44DE15B, 0x4C2EBE687989A9B3}, // 1e-16
	{0xB877AA3236A4B449, 0x09BEFEB9FAD487C2}, // 1e-17
	{0x9392EE8E921D5D07, 0x3AFF322E62439FCF}, // 1e-18
	{0xEC1E4A7DB69561A5, 0x2B31E9E3D06C32E5}, // 1e-19
	{0xBCE5086492111AEA, 0x88F4BB1CA6BCF584}, // 1e-20
	{0x971DA05074DA7BEE, 0xD3F6FC16EBCA5E03}, // 1e-21
	{0xF1C90080BAF72CB1, 0x5324C68B12DD6338}, // 1e-22
}

// StringEnd returns the index one past the closing quote of the
// string starting at b[i] == '"', validating escapes and rejecting
// raw control characters exactly as stdlib's scanner does. (Invalid
// UTF-8 is not a validity error in stdlib either; PlainString handles
// its value semantics.)
func StringEnd(b []byte, i int) (int, bool) {
	if i >= len(b) || b[i] != '"' {
		return 0, false
	}
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1, true
		case c == '\\':
			i++
			if i >= len(b) {
				return 0, false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(b) || !isHex(b[i+1]) || !isHex(b[i+2]) ||
					!isHex(b[i+3]) || !isHex(b[i+4]) {
					return 0, false
				}
				i += 4
			default:
				return 0, false
			}
		case c < 0x20:
			return 0, false
		}
	}
	return 0, false
}

func isHex(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// PlainString scans the string starting at b[i] == '"' and returns its
// contents (aliasing b) and the index one past the closing quote,
// declining any content stdlib would not pass through verbatim:
// escapes, raw control characters, and invalid UTF-8 (stdlib
// substitutes U+FFFD for the latter).
func PlainString(b []byte, i int) (inner []byte, end int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0, false
	}
	ascii := true
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			inner = b[i+1 : j]
			return inner, j + 1, ascii || utf8.Valid(inner)
		case c == '\\' || c < 0x20:
			return nil, 0, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, 0, false
}

// Int parses a plain base-10 integer from a number extent (no
// exponent, no fraction — those are errors for an int field, which
// stdlib reports better) of at most 18 digits.
func Int(val []byte) (int, bool) {
	i, neg := 0, false
	if i < len(val) && val[i] == '-' {
		neg = true
		i++
	}
	if i >= len(val) || len(val)-i > 18 {
		return 0, false
	}
	n := 0
	for ; i < len(val); i++ {
		c := val[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// AppendString appends s as a JSON string, declining any content
// encoding/json would not copy through verbatim with or without HTML
// escaping: quotes, backslashes, control characters, <, > and &, and
// everything outside printable ASCII.
func AppendString(dst []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return dst, false
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"'), true
}

// AppendFloat appends f in encoding/json's float64 format: the
// shortest representation that round-trips, exponent form below 1e-6
// and from 1e21 with a negative exponent's leading zero dropped. NaN
// and the infinities, which stdlib reports as errors, decline.
func AppendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, true
}
