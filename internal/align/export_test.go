package align

// RefAlign hands the old traceback to this directory's external tests.
var RefAlign = refAlign
