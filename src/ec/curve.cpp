#include "ec/curve.h"

#include <stdexcept>

#include "common/rng.h"
#include "ec/ops.h"

namespace eccm0::ec {

const BinaryCurve& BinaryCurve::sect233k1() {
  static const BinaryCurve c = [] {
    const gf2::GF2Field& f = gf2::GF2Field::f233();
    BinaryCurve k;
    k.field = &f;
    k.a = f.zero();
    k.b = f.one();
    k.gx = f.from_hex(
        "17232BA853A7E731AF129F22FF4149563A419C26BF50A4C9D6EEFAD6126");
    k.gy = f.from_hex(
        "1DB537DECE819B7F70F555A67C427A8CD9BF18AEB9B56E0C11056FAE6A3");
    k.order = mpint::UInt::from_hex(
        "8000000000000000000000000000069D5BB915BCD46EFB1AD5F173ABDF");
    k.cofactor = 4;
    k.koblitz = true;
    k.mu = -1;
    k.delta = tnaf_delta(k.mu, f.m());
    k.name = "sect233k1";
    return k;
  }();
  return c;
}

const BinaryCurve& BinaryCurve::sect163k1() {
  static const BinaryCurve c = [] {
    const gf2::GF2Field& f = gf2::GF2Field::f163();
    BinaryCurve k;
    k.field = &f;
    k.a = f.one();
    k.b = f.one();
    k.gx = f.from_hex("2FE13C0537BBC11ACAA07D793DE4E6D5E5C94EEE8");
    k.gy = f.from_hex("289070FB05D38FF58321F2E800536D538CCDAA3D9");
    k.order =
        mpint::UInt::from_hex("4000000000000000000020108A2E0CC0D99F8A5EF");
    k.cofactor = 2;
    k.koblitz = true;
    k.mu = 1;
    k.delta = tnaf_delta(k.mu, f.m());
    k.name = "sect163k1";
    return k;
  }();
  return c;
}

const BinaryCurve& BinaryCurve::sect233r1() {
  static const BinaryCurve c = [] {
    const gf2::GF2Field& f = gf2::GF2Field::f233();
    BinaryCurve k;
    k.field = &f;
    k.a = f.one();
    k.b = f.from_hex(
        "66647EDE6C332C7F8C0923BB58213B333B20E9CE4281FE115F7D8F90AD");
    k.gx = f.from_hex(
        "FAC9DFCBAC8313BB2139F1BB755FEF65BC391F8B36F8F8EB7371FD558B");
    k.gy = f.from_hex(
        "1006A08A41903350678E58528BEBF8A0BEFF867A7CA36716F7E01F81052");
    k.order = mpint::UInt::from_hex(
        "1000000000000000000000000000013E974E72F8A6922031D2603CFE0D7");
    k.cofactor = 2;
    k.koblitz = false;
    k.mu = 0;
    k.name = "sect233r1";
    return k;
  }();
  return c;
}

BinaryCurve BinaryCurve::derive_koblitz(const gf2::GF2Field& field,
                                        unsigned a, std::uint64_t seed,
                                        std::string name) {
  if (a > 1) throw std::invalid_argument("derive_koblitz: a must be 0 or 1");
  BinaryCurve c;
  c.field = &field;
  c.a = a == 1 ? field.one() : field.zero();
  c.b = field.one();
  c.koblitz = true;
  c.mu = a == 1 ? 1 : -1;
  c.name = std::move(name);

  // Order and cofactor from the tau-adic norms — no transcription.
  const TauRing ring(c.mu);
  c.delta = tnaf_delta(c.mu, field.m());
  c.order = ring.norm(c.delta).abs();
  const ZTau tau_minus_1{mpint::SInt{-1}, mpint::SInt{1}};
  c.cofactor =
      static_cast<unsigned>(ring.norm(tau_minus_1).abs().low_u64());

  // Generator: decompress the first solvable x from a seeded stream and
  // clear the cofactor. The result has exact order `order` (a nontrivial
  // point of the prime-order subgroup).
  CurveOps ops(c);
  Rng rng(seed);
  for (;;) {
    const gf2::Elem x = field.random(rng);
    if (gf2::GF2Field::is_zero(x)) continue;
    // y = x*z with z^2 + z = x + a + b/x^2 (b = 1).
    gf2::Elem q = field.add(x, field.inv(field.sqr(x)));
    q = field.add(q, c.a);
    if (field.trace(q) != 0) continue;
    const gf2::Elem z = field.half_trace(q);
    AffinePoint p = AffinePoint::make(x, field.mul(x, z));
    for (unsigned h = c.cofactor; h > 1; h >>= 1) p = ops.dbl(p);
    if (p.inf) continue;
    c.gx = p.x;
    c.gy = p.y;
    return c;
  }
}

const BinaryCurve& BinaryCurve::k409_derived() {
  static const BinaryCurve c =
      derive_koblitz(gf2::GF2Field::f409(), 0, 0x409409, "K-409 (derived)");
  return c;
}

}  // namespace eccm0::ec
