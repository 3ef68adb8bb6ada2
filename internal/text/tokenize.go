package text

import (
	"strings"
	"unicode"
)

// Tokenize splits s into lowercase word tokens. A token is a maximal run
// of letters or of digits; everything else separates tokens, letter/digit
// boundaries split ("24MP" → ["24", "mp"]), and camelCase boundaries split
// ("shutterSpeed" → ["shutter", "speed"], "HDMIPort" → ["hdmi", "port"]).
// This mirrors the preprocessing used to look words up in the embedding
// vocabulary: property names arrive in arbitrary site conventions and must
// map onto the same vocabulary entries.
func Tokenize(s string) []string {
	var toks []string
	var cur []rune
	var curKind rune // 'l' letters, 'd' digits, 0 none
	flush := func() {
		if len(cur) > 0 {
			toks = append(toks, strings.ToLower(string(cur)))
			cur = cur[:0]
		}
		curKind = 0
	}
	prevUpper := false
	for _, r := range s {
		var kind rune
		switch {
		case unicode.IsLetter(r):
			kind = 'l'
		case unicode.IsDigit(r):
			kind = 'd'
		default:
			flush()
			prevUpper = false
			continue
		}
		switch {
		case curKind != 0 && kind != curKind:
			flush()
		case kind == 'l' && unicode.IsUpper(r) && !prevUpper && len(cur) > 0:
			// lower→Upper boundary: camelCase.
			flush()
		case kind == 'l' && !unicode.IsUpper(r) && prevUpper && len(cur) > 1:
			// UPPERRun followed by lowercase: the last upper rune starts
			// the next word ("HDMIPort" → "HDMI" | "Port").
			last := cur[len(cur)-1]
			cur = cur[:len(cur)-1]
			flush()
			cur = append(cur, last)
		}
		cur = append(cur, r)
		curKind = kind
		prevUpper = kind == 'l' && unicode.IsUpper(r)
	}
	flush()
	return toks
}

// NormalizeName canonicalises a property name for comparison: it joins the
// Tokenize tokens with single spaces, so "Camera-Resolution",
// "camera_resolution" and "cameraResolution" all normalise to
// "camera resolution" and string distances measure real name differences
// rather than site naming conventions.
func NormalizeName(s string) string {
	return strings.Join(Tokenize(s), " ")
}
