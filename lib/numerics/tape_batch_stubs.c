/* Structure-of-arrays batch kernel for the tape IR — the chunk kernel
   behind [Tape.Plan.run_batch].

   The contract is BIT-IDENTITY with the scalar OCaml interpreter
   [Tape.run]: every lane must perform exactly the scalar op sequence
   on IEEE-754 doubles.  That pins three things down:

   - no fused multiply-add: the tape's muladd/submul/mulsub ops are
     fl(fl(a*b) +- c) by definition, so the build passes
     -ffp-contract=off (see lib/numerics/dune) and nothing here may
     invite contraction;
   - min/max are hand transcriptions of OCaml 5.1's [Float.min] /
     [Float.max] (stdlib float.ml), including the NaN propagation and
     the signed-zero ordering;
   - pow is the same left fold of multiplications as the interpreter,
     not libm pow().

   Layout: the batch workspace [bws] holds
   [chunk] lanes per slot, slot-major — lane l of slot s at
   s*chunk + l.  Inputs/outputs are row-major matrices; lanes
   r0..r0+m-1 of this chunk map to rows r0..r0+m-1.  All indices are
   precomputed by [compile] and validated by [Plan.run_batch]; the
   kernel itself allocates nothing and never calls back into the
   runtime, hence [@@noalloc] on the OCaml side. */

#include <caml/mlvalues.h>
#include <math.h>

#define DBL(v) ((double *) (v))

/* OCaml 5.1 Float.min:
     if y > x || (not(sign_bit y) && sign_bit x) then
       if is_nan y then y else x
     else if is_nan x then x else y */
static inline double ml_min(double x, double y)
{
  if (y > x || (!signbit(y) && signbit(x)))
    return isnan(y) ? y : x;
  return isnan(x) ? x : y;
}

/* OCaml 5.1 Float.max (same guard, arms swapped) */
static inline double ml_max(double x, double y)
{
  if (y > x || (!signbit(y) && signbit(x)))
    return isnan(x) ? x : y;
  return isnan(y) ? y : x;
}

/* desc = [| n_instrs; n_vars; n_thetas; var_base; theta_base; n_outs;
             out_slot_0; ... |]
   geom = [| chunk; m; r0; xc; tc; oc |] */
CAMLprim value umf_tape_batch_chunk(value vcode, value vdesc, value vbws,
                                    value vxd, value vtd, value vod,
                                    value vgeom)
{
  const value *code = Op_val(vcode);
  const value *desc = Op_val(vdesc);
  const value *geom = Op_val(vgeom);
  double *bws = DBL(vbws);
  const double *xd = DBL(vxd);
  const double *td = DBL(vtd);
  double *od = DBL(vod);

  const long n_instrs = Long_val(desc[0]);
  const long n_vars = Long_val(desc[1]);
  const long n_thetas = Long_val(desc[2]);
  const long var_base = Long_val(desc[3]);
  const long theta_base = Long_val(desc[4]);
  const long n_outs = Long_val(desc[5]);

  const long chunk = Long_val(geom[0]);
  const long m = Long_val(geom[1]);
  const long r0 = Long_val(geom[2]);
  const long xc = Long_val(geom[3]);
  const long tc = Long_val(geom[4]);
  const long oc = Long_val(geom[5]);

  long i, j, k, l;

  /* gather variables and parameters: strided rows -> contiguous lanes */
  for (i = 0; i < n_vars; i++) {
    double *restrict dst = bws + (var_base + i) * chunk;
    const double *src = xd + r0 * xc + i;
    for (l = 0; l < m; l++)
      dst[l] = src[l * xc];
  }
  for (j = 0; j < n_thetas; j++) {
    double *restrict dst = bws + (theta_base + j) * chunk;
    const double *src = td + r0 * tc + j;
    for (l = 0; l < m; l++)
      dst[l] = src[l * tc];
  }

  /* one dispatch per instruction, executed across all live lanes.
     [dst] never aliases an operand slot (compile emits a fresh temp
     per node), so restrict is sound and the simple loops vectorize. */
  for (k = 0; k < n_instrs; k++) {
    const value *ins = code + 5 * k;
    const long op = Long_val(ins[0]);
    double *restrict d = bws + Long_val(ins[1]) * chunk;
    const double *a = bws + Long_val(ins[2]) * chunk;
    const long braw = Long_val(ins[3]);
    const double *b = bws + braw * chunk;
    switch (op) {
    case 0: /* add */
      for (l = 0; l < m; l++) d[l] = a[l] + b[l];
      break;
    case 1: /* sub */
      for (l = 0; l < m; l++) d[l] = a[l] - b[l];
      break;
    case 2: /* mul */
      for (l = 0; l < m; l++) d[l] = a[l] * b[l];
      break;
    case 3: /* div */
      for (l = 0; l < m; l++) d[l] = a[l] / b[l];
      break;
    case 4: /* neg */
      for (l = 0; l < m; l++) d[l] = -a[l];
      break;
    case 5: /* pow: braw is the literal exponent; same left fold as
               the interpreter, never libm pow() */
      for (l = 0; l < m; l++) {
        double base = a[l], acc = 1.0;
        long e;
        for (e = 0; e < braw; e++)
          acc = acc * base;
        d[l] = acc;
      }
      break;
    case 6: /* min */
      for (l = 0; l < m; l++) d[l] = ml_min(a[l], b[l]);
      break;
    case 7: /* max */
      for (l = 0; l < m; l++) d[l] = ml_max(a[l], b[l]);
      break;
    case 8: { /* ite: guard <= 0 picks the then-branch */
      const double *c = bws + Long_val(ins[4]) * chunk;
      for (l = 0; l < m; l++) d[l] = a[l] <= 0.0 ? b[l] : c[l];
      break;
    }
    case 9: { /* muladd: fl(fl(a*b) + c) — contraction disabled */
      const double *c = bws + Long_val(ins[4]) * chunk;
      for (l = 0; l < m; l++) d[l] = (a[l] * b[l]) + c[l];
      break;
    }
    case 10: { /* submul: fl(a - fl(b*c)) */
      const double *c = bws + Long_val(ins[4]) * chunk;
      for (l = 0; l < m; l++) d[l] = a[l] - (b[l] * c[l]);
      break;
    }
    default: { /* mulsub: fl(fl(a*b) - c) */
      const double *c = bws + Long_val(ins[4]) * chunk;
      for (l = 0; l < m; l++) d[l] = (a[l] * b[l]) - c[l];
      break;
    }
    }
  }

  /* scatter outputs: contiguous lanes -> strided rows */
  for (j = 0; j < n_outs; j++) {
    const double *src = bws + Long_val(desc[6 + j]) * chunk;
    double *dst = od + r0 * oc + j;
    for (l = 0; l < m; l++)
      dst[l * oc] = src[l];
  }
  return Val_unit;
}

CAMLprim value umf_tape_batch_chunk_byte(value *argv, int argn)
{
  (void) argn;
  return umf_tape_batch_chunk(argv[0], argv[1], argv[2], argv[3], argv[4],
                              argv[5], argv[6]);
}
