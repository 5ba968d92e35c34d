package signature

// InformativeLen is informativeLen, for the external differential test.
var InformativeLen = informativeLen
