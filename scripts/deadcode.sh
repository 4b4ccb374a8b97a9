#!/bin/sh
# deadcode.sh — fails on any non-test function in internal/, cmd/ or
# examples/ that no root links, unless scripts/deadcode.allow lists it with
# the reason it is kept.
#
# The roots are every cmd/* and examples/* binary, the _perfbench module's
# binary and the root package's benchmark test binary (bench_test.go). Each
# is built with inlining off (-gcflags=all=-l), so every function the linker
# keeps has its own symbol; `go tool nm` lists them. A declared function
# that appears in no root's symbol table is unlinked.
#
# The linker is conservative: it keeps an exported method of any type that
# reaches an interface conversion when some interface calls a method of
# that name, so a method can be reported linked yet never run. The reverse,
# a function that runs but is reported unlinked, does not happen; interface
# marker methods, which satisfy an interface but are never called, are
# reported unlinked and belong in the allow list.
#
# Allow-list lines are `<package path>.<func>` or
# `<package path>.<Type>.<method>`, then whitespace and the reason; `#`
# starts a comment line. An entry without a reason, a duplicate, and a
# stale entry (linked now, or no longer declared) also fail the check.
#
# A function that only its own tests call is deleted together with those
# tests. The entries still kept for that reason (reason starting with
# "own tests only") are a prune in progress, capped at OWN_TESTS_ONLY:
# more entries than that fail the check, and so do fewer, so each prune
# lowers the cap with it until it reaches 0.
#
# Usage: scripts/deadcode.sh   (from the repository root)
set -eu

export LC_ALL=C
ALLOW=scripts/deadcode.allow
OWN_TESTS_ONLY=29
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

mkdir -p "$TMP/bin"
go build -gcflags=all=-l -o "$TMP/bin/" ./cmd/... ./examples/...
(cd _perfbench && go build -gcflags=all=-l -o "$TMP/bin/perfbench" .)
go test -c -gcflags=all=-l -o "$TMP/bin/root.test" .

# Linked symbols, normalised to pkg.Func / pkg.Type.Method: type
# arguments, pointer receivers and method-value suffixes are dropped, and
# each main package's "main." prefix becomes its import path.
go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./cmd/... ./examples/... |
  while read -r pkg; do
    printf '%s %s\n' "$TMP/bin/${pkg##*/}" "$pkg"
  done > "$TMP/mains"
for bin in "$TMP"/bin/*; do
  main=$(awk -v b="$bin" '$1 == b {print $2}' "$TMP/mains")
  go tool nm "$bin" | sed -E 's/^ *[0-9a-f]* +[A-Za-z] //' |
    awk -v main="$main" '
      { s = $0
        while (match(s, /\[[^][]*\]/)) s = substr(s, 1, RSTART-1) substr(s, RSTART+RLENGTH)
        gsub(/\(\*/, "", s); gsub(/\)/, "", s); sub(/-fm$/, "", s)
        if (main != "" && substr(s, 1, 5) == "main.") s = main substr(s, 5)
        if (substr(s, 1, 5) == "mkos/") print s }'
done | sort -u > "$TMP/linked"

# Declared non-test functions. gofmt puts every declaration at column 0
# as `func Name(`, `func Name[`, or `func (r *Type[T]) Name(`.
go list -f '{{$d := .Dir}}{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$d}}/{{.}}{{"\n"}}{{end}}' \
  ./internal/... ./cmd/... ./examples/... |
  while read -r pkg file; do
    awk -v pkg="$pkg" '
      /^func / {
        s = substr($0, 6); recv = ""
        if (substr(s, 1, 1) == "(") {
          r = substr(s, 2, index(s, ")") - 2)
          s = substr(s, index(s, ")") + 2)
          n = split(r, f, " "); recv = f[n]
          sub(/^\*/, "", recv); sub(/\[.*/, "", recv); recv = recv "."
        }
        match(s, /^[A-Za-z0-9_]+/); name = substr(s, 1, RLENGTH)
        if (name == "init" && recv == "") next
        print pkg "." recv name }' "$file"
  done | sort -u > "$TMP/declared"

sed -e '/^#/d' -e '/^[[:space:]]*$/d' "$ALLOW" > "$TMP/entries"
awk '{print $1}' "$TMP/entries" | sort > "$TMP/allow"
dups=$(uniq -d "$TMP/allow")
unreasoned=$(awk 'NF < 2 {print $1}' "$TMP/entries")
awk '{r = $0; sub(/^[^[:space:]]+[[:space:]]+/, "", r)
  if (index(r, "own tests only") == 1) print $1}' "$TMP/entries" > "$TMP/owntests"
owntests=$(wc -l < "$TMP/owntests")

comm -23 "$TMP/declared" "$TMP/linked" > "$TMP/unlinked"
comm -23 "$TMP/unlinked" "$TMP/allow" > "$TMP/new"
comm -13 "$TMP/unlinked" "$TMP/allow" > "$TMP/stale"

status=0
if [ -s "$TMP/new" ]; then
  echo "deadcode: unlinked functions not in $ALLOW (delete them, or list them with a reason):"
  sed 's/^/  /' "$TMP/new"
  status=1
fi
if [ -s "$TMP/stale" ]; then
  echo "deadcode: stale $ALLOW entries (linked now, or no longer declared):"
  sed 's/^/  /' "$TMP/stale"
  status=1
fi
if [ -n "$dups" ]; then
  echo "deadcode: duplicate $ALLOW entries:"
  echo "$dups" | sed 's/^/  /'
  status=1
fi
if [ -n "$unreasoned" ]; then
  echo "deadcode: $ALLOW entries without a reason:"
  echo "$unreasoned" | sed 's/^/  /'
  status=1
fi
if [ "$owntests" -gt "$OWN_TESTS_ONLY" ]; then
  echo "deadcode: $owntests $ALLOW entries kept only for their own tests, more than the cap of $OWN_TESTS_ONLY (delete the function and those tests):"
  sed 's/^/  /' "$TMP/owntests"
  status=1
elif [ "$owntests" -lt "$OWN_TESTS_ONLY" ]; then
  echo "deadcode: $owntests $ALLOW entries kept only for their own tests, fewer than the cap; lower OWN_TESTS_ONLY in $0 to $owntests"
  status=1
fi
[ $status -eq 0 ] && echo "deadcode: $(wc -l < "$TMP/declared") functions declared, $(wc -l < "$TMP/unlinked") unlinked, all allowed"
exit $status
