#include "htm/htm.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/strings.h"

namespace sky::htm {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kDegToRad = kPi / 180.0;
constexpr double kRadToDeg = 180.0 / kPi;
// Tolerance for boundary membership tests.
constexpr double kEpsilon = 1e-12;

// "Insideness" of p w.r.t. the triangle: the minimum of the three edge-plane
// dot products. Positive means strictly inside; the most-inside child is the
// deterministic tie-break when floating point puts a point on an edge.
double insideness(const std::array<Vec3, 3>& v, const Vec3& p) {
  const double d0 = v[0].cross(v[1]).dot(p);
  const double d1 = v[1].cross(v[2]).dot(p);
  const double d2 = v[2].cross(v[0]).dot(p);
  return std::min({d0, d1, d2});
}

Vec3 midpoint(const Vec3& a, const Vec3& b) {
  return (a + b).normalized();
}

std::array<Trixel, 4> children_of(const Trixel& t) {
  const Vec3 w0 = midpoint(t.v[1], t.v[2]);
  const Vec3 w1 = midpoint(t.v[0], t.v[2]);
  const Vec3 w2 = midpoint(t.v[0], t.v[1]);
  return {
      Trixel{t.id * 4 + 0, {t.v[0], w2, w1}},
      Trixel{t.id * 4 + 1, {t.v[1], w0, w2}},
      Trixel{t.id * 4 + 2, {t.v[2], w1, w0}},
      Trixel{t.id * 4 + 3, {w0, w1, w2}},
  };
}

}  // namespace

double Vec3::norm() const { return std::sqrt(x * x + y * y + z * z); }

Vec3 Vec3::normalized() const {
  const double n = norm();
  assert(n > 0);
  return {x / n, y / n, z / n};
}

Vec3 radec_to_vector(double ra_deg, double dec_deg) {
  const double ra = std::fmod(ra_deg, 360.0) * kDegToRad;
  const double dec = dec_deg * kDegToRad;
  const double cd = std::cos(dec);
  return {cd * std::cos(ra), cd * std::sin(ra), std::sin(dec)};
}

void vector_to_radec(const Vec3& v, double* ra_deg, double* dec_deg) {
  const Vec3 u = v.normalized();
  double ra = std::atan2(u.y, u.x) * kRadToDeg;
  if (ra < 0) ra += 360.0;
  *ra_deg = ra;
  *dec_deg = std::asin(std::clamp(u.z, -1.0, 1.0)) * kRadToDeg;
}

double angular_distance_deg(const Vec3& a, const Vec3& b) {
  const Vec3 ua = a.normalized();
  const Vec3 ub = b.normalized();
  // atan2 form is accurate for both tiny and near-antipodal separations.
  const double cross_norm = ua.cross(ub).norm();
  const double dot = ua.dot(ub);
  return std::atan2(cross_norm, dot) * kRadToDeg;
}

const std::array<Trixel, 8>& root_trixels() {
  static const std::array<Trixel, 8> roots = [] {
    const Vec3 v0{0, 0, 1};
    const Vec3 v1{1, 0, 0};
    const Vec3 v2{0, 1, 0};
    const Vec3 v3{-1, 0, 0};
    const Vec3 v4{0, -1, 0};
    const Vec3 v5{0, 0, -1};
    return std::array<Trixel, 8>{
        Trixel{8, {v1, v5, v2}},   // S0
        Trixel{9, {v2, v5, v3}},   // S1
        Trixel{10, {v3, v5, v4}},  // S2
        Trixel{11, {v4, v5, v1}},  // S3
        Trixel{12, {v1, v0, v4}},  // N0
        Trixel{13, {v4, v0, v3}},  // N1
        Trixel{14, {v3, v0, v2}},  // N2
        Trixel{15, {v2, v0, v1}},  // N3
    };
  }();
  return roots;
}

uint64_t htm_id(const Vec3& direction, int depth) {
  assert(depth >= 0 && depth <= kMaxDepth);
  const Vec3 p = direction.normalized();
  // Pick the most-inside root.
  const Trixel* current = &root_trixels()[0];
  double best = -2.0;
  for (const Trixel& root : root_trixels()) {
    const double score = insideness(root.v, p);
    if (score > best) {
      best = score;
      current = &root;
    }
  }
  // Each level picks the child with the largest insideness (the first on a
  // tie, in child order 0..3) — the same choice as scoring all four
  // children_of() with insideness(), bit for bit, but from at most 9 cross
  // products and usually 3 or 5. Child 3 = {w0, w1, w2} has the inner-edge
  // dots a, b, c; each corner child has one inner edge reversed, and in
  // IEEE arithmetic (no fused multiply-add: see CMakeLists.txt)
  // y×x == −(x×y) and (−n)·p == −(n·p) exactly, so its dot is −a, −b or
  // −c. Every corner child scores <= the negation of its inner dot, and
  // child 3 scores <= min(a, b, c), which settles the two shortcuts.
  uint64_t id = current->id;
  Vec3 v0 = current->v[0];
  Vec3 v1 = current->v[1];
  Vec3 v2 = current->v[2];
  for (int level = 0; level < depth; ++level) {
    const Vec3 w0 = midpoint(v1, v2);
    const Vec3 w1 = midpoint(v0, v2);
    const Vec3 w2 = midpoint(v0, v1);
    const double a = w0.cross(w1).dot(p);
    const double b = w1.cross(w2).dot(p);
    const double c = w2.cross(w0).dot(p);
    int child = -1;
    if (a > 0 && b > 0 && c > 0) {
      child = 3;  // every corner child scores < 0
    } else if (b < 0 && a >= 0 && c >= 0) {
      // Only child 0 can score > 0; it wins if it does.
      if (std::min(v0.cross(w2).dot(p), w1.cross(v0).dot(p)) > 0) child = 0;
    } else if (c < 0 && a >= 0 && b >= 0) {
      if (std::min(v1.cross(w0).dot(p), w2.cross(v1).dot(p)) > 0) child = 1;
    } else if (a < 0 && b >= 0 && c >= 0) {
      if (std::min(v2.cross(w1).dot(p), w0.cross(v2).dot(p)) > 0) child = 2;
    }
    if (child < 0) {
      // Near an edge: score all four, in insideness()'s edge order.
      const double scores[4] = {
          std::min({v0.cross(w2).dot(p), -b, w1.cross(v0).dot(p)}),
          std::min({v1.cross(w0).dot(p), -c, w2.cross(v1).dot(p)}),
          std::min({v2.cross(w1).dot(p), -a, w0.cross(v2).dot(p)}),
          std::min({a, b, c}),
      };
      double best_score = -2.0;
      for (int k = 0; k < 4; ++k) {
        if (scores[k] > best_score) {
          best_score = scores[k];
          child = k;
        }
      }
      if (child < 0) child = 0;  // NaN direction: as children_of()[0]
    }
    switch (child) {
      case 0:
        v1 = w2;
        v2 = w1;
        break;
      case 1:
        v0 = v1;
        v1 = w0;
        v2 = w2;
        break;
      case 2:
        v0 = v2;
        v1 = w1;
        v2 = w0;
        break;
      default:
        v0 = w0;
        v1 = w1;
        v2 = w2;
    }
    id = id * 4 + static_cast<uint64_t>(child);
  }
  return id;
}

uint64_t htm_id_radec(double ra_deg, double dec_deg, int depth) {
  return htm_id(radec_to_vector(ra_deg, dec_deg), depth);
}

Result<int> depth_of_id(uint64_t id) {
  uint64_t lo = 8, hi = 16;
  for (int depth = 0; depth <= kMaxDepth; ++depth) {
    if (id >= lo && id < hi) return depth;
    lo *= 4;
    hi *= 4;
  }
  return Status(ErrorCode::kInvalidArgument,
                "not a valid HTM id: " + std::to_string(id));
}

Result<Trixel> trixel_from_id(uint64_t id) {
  SKY_ASSIGN_OR_RETURN(const int depth, depth_of_id(id));
  const uint64_t root_id = id >> (2 * depth);
  Trixel node = root_trixels()[root_id - 8];
  for (int level = depth - 1; level >= 0; --level) {
    const auto child = (id >> (2 * level)) & 3;
    node = children_of(node)[child];
  }
  assert(node.id == id);
  return node;
}

Result<std::string> id_to_name(uint64_t id) {
  SKY_ASSIGN_OR_RETURN(const int depth, depth_of_id(id));
  const uint64_t root_id = id >> (2 * depth);
  std::string name = root_id < 12 ? "S" : "N";
  name.push_back(static_cast<char>('0' + (root_id & 3)));
  for (int level = depth - 1; level >= 0; --level) {
    name.push_back(static_cast<char>('0' + ((id >> (2 * level)) & 3)));
  }
  return name;
}

Result<uint64_t> name_to_id(std::string_view name) {
  if (name.size() < 2 || (name[0] != 'N' && name[0] != 'S')) {
    return Status(ErrorCode::kInvalidArgument,
                  "bad HTM name: " + std::string(name));
  }
  if (name.size() > static_cast<size_t>(kMaxDepth) + 2) {
    return Status(ErrorCode::kInvalidArgument, "HTM name too deep");
  }
  uint64_t id = name[0] == 'S' ? 8 : 12;
  if (name[1] < '0' || name[1] > '3') {
    return Status(ErrorCode::kInvalidArgument, "bad HTM root digit");
  }
  id += static_cast<uint64_t>(name[1] - '0');
  for (size_t i = 2; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '3') {
      return Status(ErrorCode::kInvalidArgument, "bad HTM child digit");
    }
    id = id * 4 + static_cast<uint64_t>(name[i] - '0');
  }
  return id;
}

Result<bool> id_contains(uint64_t id, const Vec3& direction) {
  SKY_ASSIGN_OR_RETURN(const Trixel trixel, trixel_from_id(id));
  return insideness(trixel.v, direction.normalized()) >= -kEpsilon;
}

double trixel_solid_angle_sr(const Trixel& trixel) {
  // Interior angle at each vertex: the angle between the two great-circle
  // edges meeting there, computed from edge-plane normals.
  double angle_sum = 0;
  for (int v = 0; v < 3; ++v) {
    const Vec3& at = trixel.v[static_cast<size_t>(v)];
    const Vec3& prev = trixel.v[static_cast<size_t>((v + 2) % 3)];
    const Vec3& next = trixel.v[static_cast<size_t>((v + 1) % 3)];
    const Vec3 n1 = at.cross(prev);
    const Vec3 n2 = at.cross(next);
    const double denom = n1.norm() * n2.norm();
    if (denom < 1e-15) return 0.0;  // degenerate
    const double cos_angle = std::clamp(n1.dot(n2) / denom, -1.0, 1.0);
    angle_sum += std::acos(cos_angle);
  }
  return std::max(0.0, angle_sum - kPi);  // spherical excess
}

double cap_solid_angle_sr(double radius_deg) {
  return 2.0 * kPi * (1.0 - std::cos(radius_deg * kDegToRad));
}

namespace {

// Absolute slack on chords and edge sines: far above the rounding of
// unit-vector arithmetic, far below any trixel, so thresholds err on the
// covering side.
constexpr double kCoverSlack = 1e-14;
enum : uint8_t { kInside = 1, kStrictlyInside = 2 };

double squared(double x) { return x * x; }

// One cover's depth-first walk over a convex cap (see cone_cover).
struct CoverWalk {
  Vec3 c;                // cap center; the antipode when `wide`
  bool wide;             // walking the complement of a cap wider than 90
  int depth;
  double chord2_inside;  // |c - v|^2 <= this: v inside
  double chord2_strict;  // |c - v|^2 < this: v strictly inside
  double sin2;           // (c.n)^2 > sin2 |n|^2: edge circle out of reach
  std::vector<IdRange>& out;

  uint8_t flags(const Vec3& v) const {
    const Vec3 d = c - v;
    const double chord2 = d.dot(d);
    return static_cast<uint8_t>((chord2 <= chord2_inside ? kInside : 0) |
                                (chord2 < chord2_strict ? kStrictlyInside : 0));
  }

  // No vertex inside: the cap still meets the trixel if its center is
  // inside, or if its rim crosses an edge whose great circle it reaches at
  // a point between the edge's endpoints.
  bool reaches(const std::array<Vec3, 3>& v) const {
    std::array<Vec3, 3> n;
    std::array<double, 3> side;
    for (size_t e = 0; e < 3; ++e) {
      n[e] = v[e].cross(v[(e + 1) % 3]);
      side[e] = n[e].dot(c);
    }
    if (std::min({side[0], side[1], side[2]}) >= -kEpsilon) return true;
    for (size_t e = 0; e < 3; ++e) {
      if (squared(side[e]) <= sin2 * n[e].dot(n[e]) &&
          v[e].cross(c).dot(n[e]) >= 0 &&
          c.cross(v[(e + 1) % 3]).dot(n[e]) >= 0) {
        return true;
      }
    }
    return false;
  }

  // Children are visited in id order, so ranges arrive sorted and are
  // coalesced as they are emitted.
  void visit(uint64_t id, const std::array<Vec3, 3>& v,
             const std::array<uint8_t, 3>& f, int level) {
    const int all = f[0] & f[1] & f[2];
    bool full = (all & kInside) != 0;
    bool partial = !full && (((f[0] | f[1] | f[2]) & kInside) || reaches(v));
    if (wide) {  // inside the complement is outside the cap, bar its rim
      partial = partial || (full && !(all & kStrictlyInside));
      full = !full && !partial;
    }
    if (!full && !partial) return;
    const int remaining = depth - level;
    if (full || remaining == 0) {
      const uint64_t width = 1ULL << (2 * remaining);
      if (!out.empty() && out.back().last == id * width) {
        out.back().last += width;
      } else {
        out.push_back(IdRange{id * width, (id + 1) * width});
      }
      return;
    }
    const Vec3 w0 = midpoint(v[1], v[2]);
    const Vec3 w1 = midpoint(v[0], v[2]);
    const Vec3 w2 = midpoint(v[0], v[1]);
    const uint8_t g0 = flags(w0), g1 = flags(w1), g2 = flags(w2);
    visit(id * 4 + 0, {v[0], w2, w1}, {f[0], g2, g1}, level + 1);
    visit(id * 4 + 1, {v[1], w0, w2}, {f[1], g0, g2}, level + 1);
    visit(id * 4 + 2, {v[2], w1, w0}, {f[2], g1, g0}, level + 1);
    visit(id * 4 + 3, {w0, w1, w2}, {g0, g1, g2}, level + 1);
  }
};

}  // namespace

std::vector<IdRange> cone_cover(const Vec3& center, double radius_deg,
                                int depth) {
  assert(depth >= 0 && depth <= kMaxDepth);
  std::vector<IdRange> ranges;
  if (std::isnan(radius_deg)) return ranges;
  const double radius = std::clamp(radius_deg, 0.0, 180.0);
  const bool wide = radius > 90.0;
  const double r = (wide ? 180.0 - radius : radius) * kDegToRad;
  const double chord = 2.0 * std::sin(r / 2.0);
  const Vec3 c = center.normalized();
  CoverWalk walk{wide ? c * -1.0 : c,
                 wide,
                 depth,
                 squared(chord + kCoverSlack),
                 wide ? squared(std::max(chord - kCoverSlack, 0.0)) : -1.0,
                 squared(std::sin(r) + kCoverSlack),
                 ranges};
  for (const Trixel& root : root_trixels()) {
    walk.visit(root.id, root.v,
               {walk.flags(root.v[0]), walk.flags(root.v[1]),
                walk.flags(root.v[2])},
               0);
  }
  return ranges;
}

}  // namespace sky::htm
