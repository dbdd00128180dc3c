#!/usr/bin/env bash
# Fails when a `pub fn` is dead surface: its name appears nowhere in the
# searched sources except in its own definition(s).  A mention anywhere else
# -- a call, a path, a doc comment, a test -- counts as a reference.  The
# search covers the workspace crates, the root crate, the integration tests,
# the examples, and the serving benchmark's sources (servebench/src), so the
# benchmark's calls keep an API alive.  Trait-impl methods are exempt by
# construction: they are written `fn`, not `pub fn`.
set -euo pipefail

cd "$(dirname "$0")/.."

# Functions kept on purpose although nothing in the tree names them again.
# One entry per line: `name  # why`.
allowlist=$(
    cat <<'EOF'
derive_serialize    # proc-macro entry point: the compiler calls it for #[derive(Serialize)]
derive_deserialize  # proc-macro entry point: the compiler calls it for #[derive(Deserialize)]
EOF
)

files=$(find crates src tests examples servebench/src -name '*.rs' -not -path '*/target/*' | sort)

# Word frequencies over every searched file, and definition counts per name.
# shellcheck disable=SC2086
words=$(cat $files | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c)
# shellcheck disable=SC2086
defs=$(cat $files | grep -oE '\bpub (const )?fn [A-Za-z_][A-Za-z0-9_]*' |
    awk '{print $NF}' | sort | uniq -c)

unused=$(
    awk 'NR == FNR { seen[$2] = $1; next } seen[$2] == $1 { print $2 }' \
        <(printf '%s\n' "$words") <(printf '%s\n' "$defs")
)

status=0
for name in $unused; do
    if printf '%s\n' "$allowlist" | grep -qE "^$name( |$)"; then
        continue
    fi
    # shellcheck disable=SC2086
    grep -nE "\bpub (const )?fn $name\b" $files | while IFS= read -r site; do
        echo "unused pub fn: ${site%%:*}:$(echo "$site" | cut -d: -f2): $name" >&2
    done
    status=1
done

if [ "$status" -ne 0 ]; then
    echo "check_unused_pub: FAILED (delete the function, give it a caller, or allowlist it with a reason)" >&2
else
    echo "check_unused_pub: every pub fn is referenced"
fi
exit "$status"
