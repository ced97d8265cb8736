package plan

// Width exposes width to the external tests.
var Width = width
