package expr

import (
	"strconv"
	"strings"

	"ishare/internal/value"
)

// Canon renders a canonical form of the expression that is unambiguous
// about column identity: columns render as name#index, so two columns that
// merely share a name (e.g. self-join aliases) never collide. Plan
// signatures and merge-time expression dedup use Canon; String remains the
// human-readable display form. Constants render their kind too: an integral
// Float keeps a decimal point, so it never merges with the equal Int, which
// computes differently (integer arithmetic wraps and stays an integer).
func Canon(e Expr) string {
	if e == nil {
		return "<nil>"
	}
	switch n := e.(type) {
	case *Column:
		return n.Name + "#" + strconv.Itoa(n.Index)
	case *Const:
		s := n.String()
		if n.Val.K == value.KindFloat && !strings.ContainsAny(s, ".eIN") {
			s += ".0" // "2.5", "1e+21", "+Inf" and "NaN" already differ from any Int
		}
		return s
	case *Binary:
		return "(" + Canon(n.L) + " " + n.Op.String() + " " + Canon(n.R) + ")"
	case *Unary:
		if n.Op == OpNot {
			return "(NOT " + Canon(n.E) + ")"
		}
		return "(-" + Canon(n.E) + ")"
	case *Like:
		op := "LIKE"
		if n.Negate {
			op = "NOT LIKE"
		}
		return "(" + Canon(n.E) + " " + op + " '" + n.Pattern + "')"
	default:
		return e.String()
	}
}
