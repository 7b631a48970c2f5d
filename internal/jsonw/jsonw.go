// Package jsonw appends JSON scalars byte for byte as encoding/json
// writes them, so the daemon's hot answers and the deployment document
// can be appended into one buffer instead of going through reflection.
package jsonw

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// String appends s as a JSON string, escaped as encoding/json escapes
// it. A string of printable ASCII other than '"', '\\', '<', '>' and
// '&', and of valid UTF-8 runes other than U+2028 and U+2029, is copied
// between quotes; any other goes through json.Marshal itself.
func String(b []byte, s string) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c < ' ' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				return marshal(b, s)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || r == 0x2028 || r == 0x2029 {
			return marshal(b, s)
		}
		i += size
	}
	return append(append(append(b, '"'), s...), '"')
}

func marshal(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

// Float appends f as encoding/json writes a float64: the shortest
// decimal that reads back as f, in exponent form below 1e-6 and from
// 1e21 up, with the exponent unpadded ("1e-7", not "1e-07"). f must be
// finite; encoding/json refuses NaN and the infinities.
func Float(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
