#!/bin/sh
# seneca_boardd only loads compiled .xmodel files: it must not carry the path
# that builds a model (the FP32 U-Net, the quantizer, the timing-model build
# driver). Reads the binary's own symbol table, so it checks what was linked,
# not what CMake was asked for. Registered with ctest as `boardd_symbols`.
set -eu

BOARDD=${1:?usage: boardd_symbols_test.sh /path/to/seneca_boardd}
syms=$(nm -C "$BOARDD")

# A symbol table that lacks the daemon itself proves nothing.
case "$syms" in
  *"seneca::serve::net::BoardDaemon::"*) ;;
  *) echo "FAIL: no BoardDaemon symbols in $BOARDD (stripped?)" >&2; exit 1 ;;
esac

status=0
for needle in 'core::build_timing_qgraph' 'quant::quantize(' 'nn::build_unet2d'; do
  case "$syms" in
    *"$needle"*)
      echo "FAIL: seneca_boardd links $needle" >&2
      status=1
      ;;
  esac
done
[ "$status" -eq 0 ] && echo "ok: seneca_boardd carries no model build path"
exit "$status"
