// Hierarchical Triangular Mesh (HTM).
//
// The paper's loading pipeline computes an htmid and sky coordinates for
// every observed object before insert (section 3, citing O'Mullane et al.,
// "Splitting the Sky - HTM and HEALPix"). This is a from-scratch HTM:
// the unit sphere is split into 8 root spherical triangles (an octahedron),
// each recursively subdivided into 4 children by edge midpoints. A trixel at
// depth d has a 64-bit id in [8 * 4^d, 16 * 4^d); children share the parent
// id as a bit prefix (id_child = 4 * id_parent + k), which makes "all objects
// inside trixel T" a contiguous id range — the property the repository's
// htmid index exploits for cone searches.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace sky::htm {

struct Vec3 {
  double x = 0, y = 0, z = 0;

  Vec3 operator+(const Vec3& o) const { return {x + o.x, y + o.y, z + o.z}; }
  Vec3 operator-(const Vec3& o) const { return {x - o.x, y - o.y, z - o.z}; }
  Vec3 operator*(double s) const { return {x * s, y * s, z * s}; }
  double dot(const Vec3& o) const { return x * o.x + y * o.y + z * o.z; }
  Vec3 cross(const Vec3& o) const {
    return {y * o.z - z * o.y, z * o.x - x * o.z, x * o.y - y * o.x};
  }
  double norm() const;
  Vec3 normalized() const;
};

// Right ascension / declination (degrees) to a unit vector. ra is reduced
// mod 360; dec must be in [-90, 90].
Vec3 radec_to_vector(double ra_deg, double dec_deg);
// Inverse: unit vector to (ra, dec) in degrees, ra in [0, 360).
void vector_to_radec(const Vec3& v, double* ra_deg, double* dec_deg);

// Angular separation between two unit vectors, in degrees.
double angular_distance_deg(const Vec3& a, const Vec3& b);

// A spherical triangle (vertices are unit vectors, CCW seen from outside).
struct Trixel {
  uint64_t id = 0;
  std::array<Vec3, 3> v;
};

// Depth used by the Palomar-Quest repository for object htmids.
constexpr int kDefaultDepth = 14;
constexpr int kMaxDepth = 30;  // 2 + 2*30 + 1 bits < 64

// The 8 root trixels (ids 8..15: S0..S3 = 8..11, N0..N3 = 12..15).
const std::array<Trixel, 8>& root_trixels();

// Trixel id at `depth` containing the given unit direction.
uint64_t htm_id(const Vec3& direction, int depth = kDefaultDepth);
uint64_t htm_id_radec(double ra_deg, double dec_deg,
                      int depth = kDefaultDepth);

// Depth encoded in an id (ids are valid iff in [8*4^d, 16*4^d) for some d).
Result<int> depth_of_id(uint64_t id);

// Reconstruct the trixel (vertices) for an id.
Result<Trixel> trixel_from_id(uint64_t id);

// Symbolic name, e.g. "N012" (root letter+digit then child digits).
Result<std::string> id_to_name(uint64_t id);
Result<uint64_t> name_to_id(std::string_view name);

// Does the trixel with this id contain the direction?
Result<bool> id_contains(uint64_t id, const Vec3& direction);

// Solid angle of a spherical triangle in steradians (Girard's theorem:
// spherical excess of the interior angles). Used to measure cone-cover
// tightness.
double trixel_solid_angle_sr(const Trixel& trixel);

// Solid angle of a spherical cap of the given angular radius.
double cap_solid_angle_sr(double radius_deg);

// A half-open id range at a fixed depth.
struct IdRange {
  uint64_t first = 0;  // inclusive
  uint64_t last = 0;   // exclusive
};

// Conservative cover of the spherical cap (center, radius_deg) by trixel id
// ranges at `depth`: every point inside the cap lies in some returned range;
// ranges may include nearby outside points, so consumers post-filter by
// exact angular distance. Ranges are sorted, disjoint, and coalesced.
// A child-order walk emits them in id order; each split tests its three
// edge midpoints once (|c - v|^2 <= (2 sin(r/2))^2, the chord form of
// c.v >= cos r) and inherits the rest of its vertex flags. Identical to an
// atan2 test of every vertex away from exact rim ties, which err toward
// covering. A NaN radius covers nothing; others clamp to [0, 180].
std::vector<IdRange> cone_cover(const Vec3& center, double radius_deg,
                                int depth = kDefaultDepth);

}  // namespace sky::htm
