package gompi

import (
	"fmt"
	"testing"

	"gompi/internal/match"
)

// TestReservedTagsOutsideNBCRange: the library's fixed tags on the
// collective context (PSCW tokens, the notified-access token, the
// device barrier rounds) must
// never fall inside the collective schedule sequence, which every
// blocking and nonblocking collective call draws from.
func TestReservedTagsOutsideNBCRange(t *testing.T) {
	tags := map[string]int{"pscw post": tagWinPost, "pscw complete": tagWinComplete, "notify": tagWinNotify}
	for k := 0; k < match.TagDevBarrierRounds; k++ {
		tags[fmt.Sprintf("device barrier round %d", k)] = match.TagDevBarrierBase + k
	}
	seen := map[int]string{}
	for name, tag := range tags {
		if tag < 1 || (tag >= match.TagNBCBase && tag < match.TagNBCBase+match.TagNBCSpan) {
			t.Errorf("%s tag %d inside the collective schedule range [%d, %d)",
				name, tag, match.TagNBCBase, match.TagNBCBase+match.TagNBCSpan)
		}
		if other, dup := seen[tag]; dup {
			t.Errorf("%s and %s share tag %d", name, other, tag)
		}
		seen[tag] = name
	}
}
