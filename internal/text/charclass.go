package text

import "unicode"

// CharClass enumerates the character categories counted by the TAPON-style
// instance meta-features (Table I row 1 of the paper).
type CharClass int

// The character classes, in feature-vector order.
const (
	CharUpper     CharClass = iota // uppercase letters
	CharLower                      // lowercase letters
	CharOtherLet                   // letters that are neither upper nor lower (e.g. CJK)
	CharMark                       // combining marks (Unicode category M)
	CharNumber                     // numeric characters (category N)
	CharPunct                      // punctuation (category P)
	CharSymbol                     // symbols (category S)
	CharSeparator                  // separators, including spaces (category Z)
	CharOther                      // everything else (controls, unassigned)

	NumCharClasses
)

var charClassNames = [...]string{
	"upper", "lower", "otherLetter", "mark", "number",
	"punct", "symbol", "separator", "other",
}

// String returns a short identifier for the class.
func (c CharClass) String() string {
	if c < 0 || int(c) >= len(charClassNames) {
		return "invalid"
	}
	return charClassNames[c]
}

// ClassifyRune maps a rune to its CharClass.
func ClassifyRune(r rune) CharClass {
	switch {
	case unicode.IsUpper(r):
		return CharUpper
	case unicode.IsLower(r):
		return CharLower
	case unicode.IsLetter(r):
		return CharOtherLet
	case unicode.IsMark(r):
		return CharMark
	case unicode.IsNumber(r):
		return CharNumber
	case unicode.IsPunct(r):
		return CharPunct
	case unicode.IsSymbol(r):
		return CharSymbol
	case unicode.IsSpace(r) || unicode.In(r, unicode.Z):
		return CharSeparator
	default:
		return CharOther
	}
}

// CharClassCounts returns the number of runes of each class in s and the
// total rune count.
func CharClassCounts(s string) (counts [NumCharClasses]int, total int) {
	for _, r := range s {
		counts[ClassifyRune(r)]++
		total++
	}
	return counts, total
}

// TokenClass enumerates the token categories of the TAPON token-type
// features (Table I row 2 of the paper).
type TokenClass int

// The token classes, in feature-vector order.
const (
	TokWord      TokenClass = iota // any token containing at least one letter
	TokLowerInit                   // words starting with a lowercase letter
	TokCapital                     // uppercase first letter followed by a non-separator
	TokUpper                       // tokens consisting entirely of uppercase letters
	TokNumeric                     // tokens parseable as numeric strings

	NumTokenClasses
)

var tokenClassNames = [...]string{"word", "lowerInit", "capitalized", "upper", "numeric"}

// String returns a short identifier for the class.
func (c TokenClass) String() string {
	if c < 0 || int(c) >= len(tokenClassNames) {
		return "invalid"
	}
	return tokenClassNames[c]
}

// TokenClassCounts counts, over the whitespace tokens of s, how many tokens
// fall in each token class, plus the total token count. It scans the
// whitespace fields in place — the same maximal non-space runs Words
// returns — and classifies each without materialising a []rune, so it
// performs no heap allocations; the charclass tests cross-check it
// against the Words + ClassifyToken reference.
func TokenClassCounts(s string) (counts [NumTokenClasses]int, total int) {
	start := -1
	for i, r := range s {
		if unicode.IsSpace(r) {
			if start >= 0 {
				countTokenClasses(s[start:i], &counts)
				total++
				start = -1
			}
			continue
		}
		if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		countTokenClasses(s[start:], &counts)
		total++
	}
	return counts, total
}

// countTokenClasses increments the class counters tok belongs to,
// mirroring ClassifyToken rune for rune over the decoded string instead
// of an allocated rune slice.
func countTokenClasses(tok string, counts *[NumTokenClasses]int) {
	hasLetter := false
	allUpper := true
	var first, second rune
	n := 0
	for _, r := range tok {
		switch n {
		case 0:
			first = r
		case 1:
			second = r
		}
		n++
		if unicode.IsLetter(r) {
			hasLetter = true
			if !unicode.IsUpper(r) {
				allUpper = false
			}
		} else {
			allUpper = false
		}
	}
	if n == 0 {
		return
	}
	if hasLetter {
		counts[TokWord]++
	}
	if unicode.IsLower(first) {
		counts[TokLowerInit]++
	}
	if unicode.IsUpper(first) && n > 1 && !unicode.IsSpace(second) {
		counts[TokCapital]++
	}
	if hasLetter && allUpper {
		counts[TokUpper]++
	}
	if isNumericString(tok) {
		counts[TokNumeric]++
	}
}

func isNumericString(tok string) bool {
	if tok == "" {
		return false
	}
	seenDigit := false
	seenDot := false
	for i, r := range tok {
		switch {
		case unicode.IsDigit(r):
			seenDigit = true
		case (r == '-' || r == '+') && i == 0:
		case r == '.' && !seenDot:
			seenDot = true
		case r == ',':
			// Thousands separators are common in product specs ("1,920").
		default:
			return false
		}
	}
	return seenDigit
}
