package segment

// SameItems compares items for the external NEDSEG01 suites as this
// package's suites do.
var SameItems = sameItems
