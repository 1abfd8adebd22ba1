// Package archcheck is the repository's architecture rules, as a test:
// one of each thing the engine and the host daemon must have one of, found
// on the syntax tree and, where a call's receiver decides, on types.
package archcheck
