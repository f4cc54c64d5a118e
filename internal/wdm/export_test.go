package wdm

// CheckMatchesOracle exposes the differential oracle check to the external
// test package, which can import operon to build benchmark connection sets.
var CheckMatchesOracle = checkMatchesOracle
