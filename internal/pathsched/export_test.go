package pathsched

// OracleSchedule exposes the reference scheduler to the external test
// package, which may import the hierarchy builder.
var OracleSchedule = oracleSchedule
