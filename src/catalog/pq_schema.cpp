#include "catalog/pq_schema.h"

#include <cassert>

namespace sky::catalog {

using db::ColumnType;
using db::ForeignKey;
using db::IndexDef;
using db::CheckConstraint;
using db::TableDef;

namespace {

TableDef table(std::string name) {
  TableDef def;
  def.name = std::move(name);
  return def;
}

}  // namespace

db::Schema make_pq_schema() {
  db::Schema schema;
  auto add = [&schema](TableDef def) {
    const Status status = schema.add_table(std::move(def));
    assert(status.is_ok());
    (void)status;
  };

  // ------------------------------------------------------- reference data
  {
    TableDef t = table("surveys");
    t.col("survey_id", ColumnType::kInt64, false)
        .col("name", ColumnType::kString, false)
        .col("start_time", ColumnType::kTimestamp);
    t.primary_key = {"survey_id"};
    add(std::move(t));
  }
  {
    TableDef t = table("observers");
    t.col("observer_id", ColumnType::kInt64, false)
        .col("name", ColumnType::kString, false)
        .col("institution", ColumnType::kString);
    t.primary_key = {"observer_id"};
    add(std::move(t));
  }
  {
    TableDef t = table("filters");
    t.col("filter_id", ColumnType::kInt32, false)
        .col("name", ColumnType::kString, false)
        .col("wavelength_nm", ColumnType::kDouble);
    t.primary_key = {"filter_id"};
    t.checks.push_back(CheckConstraint{"wavelength_nm", 100.0, 3000.0});
    add(std::move(t));
  }
  {
    TableDef t = table("pipelines");
    t.col("pipeline_id", ColumnType::kInt64, false)
        .col("name", ColumnType::kString, false)
        .col("version", ColumnType::kString);
    t.primary_key = {"pipeline_id"};
    add(std::move(t));
  }
  {
    TableDef t = table("pipeline_params");
    t.col("param_id", ColumnType::kInt64, false)
        .col("pipeline_id", ColumnType::kInt64, false)
        .col("name", ColumnType::kString, false)
        .col("value", ColumnType::kDouble);
    t.primary_key = {"param_id"};
    t.foreign_keys.push_back(ForeignKey{{"pipeline_id"}, "pipelines"});
    add(std::move(t));
  }
  {
    TableDef t = table("sky_regions");
    t.col("region_id", ColumnType::kInt64, false)
        .col("ra_min", ColumnType::kDouble)
        .col("ra_max", ColumnType::kDouble)
        .col("dec_min", ColumnType::kDouble)
        .col("dec_max", ColumnType::kDouble);
    t.primary_key = {"region_id"};
    t.checks.push_back(CheckConstraint{"ra_min", 0.0, 360.0});
    t.checks.push_back(CheckConstraint{"ra_max", 0.0, 360.0});
    t.checks.push_back(CheckConstraint{"dec_min", -90.0, 90.0});
    t.checks.push_back(CheckConstraint{"dec_max", -90.0, 90.0});
    add(std::move(t));
  }

  // ------------------------------------------------------ per observation
  {
    TableDef t = table("telescope_states");
    t.col("state_id", ColumnType::kInt64, false)
        .col("temperature_c", ColumnType::kDouble)
        .col("focus_um", ColumnType::kDouble)
        .col("humidity_pct", ColumnType::kDouble);
    t.primary_key = {"state_id"};
    t.checks.push_back(CheckConstraint{"temperature_c", -50.0, 60.0});
    t.checks.push_back(CheckConstraint{"humidity_pct", 0.0, 100.0});
    add(std::move(t));
  }
  {
    TableDef t = table("observations");
    t.col("obs_id", ColumnType::kInt64, false)
        .col("survey_id", ColumnType::kInt64, false)
        .col("region_id", ColumnType::kInt64, false)
        .col("observer_id", ColumnType::kInt64)
        .col("state_id", ColumnType::kInt64, false)
        .col("start_time", ColumnType::kTimestamp, false)
        .col("airmass", ColumnType::kDouble)
        .col("moon_phase", ColumnType::kDouble);
    t.primary_key = {"obs_id"};
    t.foreign_keys.push_back(ForeignKey{{"survey_id"}, "surveys"});
    t.foreign_keys.push_back(ForeignKey{{"region_id"}, "sky_regions"});
    t.foreign_keys.push_back(ForeignKey{{"observer_id"}, "observers"});
    t.foreign_keys.push_back(ForeignKey{{"state_id"}, "telescope_states"});
    t.checks.push_back(CheckConstraint{"airmass", 1.0, 40.0});
    t.checks.push_back(CheckConstraint{"moon_phase", 0.0, 1.0});
    add(std::move(t));
  }
  {
    TableDef t = table("observation_logs");
    t.col("log_id", ColumnType::kInt64, false)
        .col("obs_id", ColumnType::kInt64, false)
        .col("log_time", ColumnType::kTimestamp)
        .col("severity", ColumnType::kInt32)
        .col("message", ColumnType::kString);
    t.primary_key = {"log_id"};
    t.foreign_keys.push_back(ForeignKey{{"obs_id"}, "observations"});
    t.checks.push_back(CheckConstraint{"severity", 0.0, 5.0});
    add(std::move(t));
  }
  {
    TableDef t = table("ccd_columns");
    t.col("ccd_col_id", ColumnType::kInt64, false)
        .col("obs_id", ColumnType::kInt64, false)
        .col("ccd_number", ColumnType::kInt32, false)
        .col("ra_start", ColumnType::kDouble)
        .col("dec_center", ColumnType::kDouble)
        .col("pixel_scale", ColumnType::kDouble);
    t.primary_key = {"ccd_col_id"};
    t.foreign_keys.push_back(ForeignKey{{"obs_id"}, "observations"});
    t.checks.push_back(CheckConstraint{"ccd_number", 0.0, 111.0});
    t.checks.push_back(CheckConstraint{"ra_start", 0.0, 360.0});
    t.checks.push_back(CheckConstraint{"dec_center", -90.0, 90.0});
    add(std::move(t));
  }
  {
    TableDef t = table("ccd_defects");
    t.col("defect_id", ColumnType::kInt64, false)
        .col("ccd_col_id", ColumnType::kInt64, false)
        .col("x_pix", ColumnType::kInt32)
        .col("y_pix", ColumnType::kInt32)
        .col("kind", ColumnType::kString);
    t.primary_key = {"defect_id"};
    t.foreign_keys.push_back(ForeignKey{{"ccd_col_id"}, "ccd_columns"});
    add(std::move(t));
  }
  {
    TableDef t = table("ccd_frames");
    t.col("frame_id", ColumnType::kInt64, false)
        .col("ccd_col_id", ColumnType::kInt64, false)
        .col("filter_id", ColumnType::kInt32, false)
        .col("seq_number", ColumnType::kInt32)
        .col("start_time", ColumnType::kTimestamp)
        .col("exposure_s", ColumnType::kDouble)
        .col("seeing_arcsec", ColumnType::kDouble)
        .col("sky_background", ColumnType::kDouble);
    t.primary_key = {"frame_id"};
    t.foreign_keys.push_back(ForeignKey{{"ccd_col_id"}, "ccd_columns"});
    t.foreign_keys.push_back(ForeignKey{{"filter_id"}, "filters"});
    t.checks.push_back(CheckConstraint{"exposure_s", 0.0, 3600.0});
    t.checks.push_back(CheckConstraint{"seeing_arcsec", 0.0, 20.0});
    add(std::move(t));
  }
  {
    TableDef t = table("ccd_frame_apertures");
    t.col("aperture_id", ColumnType::kInt64, false)
        .col("frame_id", ColumnType::kInt64, false)
        .col("aperture_number", ColumnType::kInt32, false)
        .col("radius_px", ColumnType::kDouble)
        .col("gain", ColumnType::kDouble)
        .col("zero_point", ColumnType::kDouble);
    t.primary_key = {"aperture_id"};
    t.foreign_keys.push_back(ForeignKey{{"frame_id"}, "ccd_frames"});
    t.checks.push_back(CheckConstraint{"aperture_number", 0.0, 3.0});
    t.checks.push_back(CheckConstraint{"radius_px", 0.0, 1000.0});
    add(std::move(t));
  }
  {
    TableDef t = table("frame_astrometry");
    t.col("astro_id", ColumnType::kInt64, false)
        .col("frame_id", ColumnType::kInt64, false)
        .col("crval1", ColumnType::kDouble)
        .col("crval2", ColumnType::kDouble)
        .col("cd1_1", ColumnType::kDouble)
        .col("cd1_2", ColumnType::kDouble)
        .col("cd2_1", ColumnType::kDouble)
        .col("cd2_2", ColumnType::kDouble)
        .col("rms_arcsec", ColumnType::kDouble);
    t.primary_key = {"astro_id"};
    t.foreign_keys.push_back(ForeignKey{{"frame_id"}, "ccd_frames"});
    add(std::move(t));
  }
  {
    TableDef t = table("frame_photometry");
    t.col("phot_id", ColumnType::kInt64, false)
        .col("frame_id", ColumnType::kInt64, false)
        .col("zero_point", ColumnType::kDouble)
        .col("zp_error", ColumnType::kDouble)
        .col("extinction", ColumnType::kDouble)
        .col("color_term", ColumnType::kDouble);
    t.primary_key = {"phot_id"};
    t.foreign_keys.push_back(ForeignKey{{"frame_id"}, "ccd_frames"});
    add(std::move(t));
  }
  {
    TableDef t = table("frame_calibrations");
    t.col("calib_id", ColumnType::kInt64, false)
        .col("frame_id", ColumnType::kInt64, false)
        .col("pipeline_id", ColumnType::kInt64, false)
        .col("applied_at", ColumnType::kTimestamp)
        .col("quality", ColumnType::kDouble);
    t.primary_key = {"calib_id"};
    t.foreign_keys.push_back(ForeignKey{{"frame_id"}, "ccd_frames"});
    t.foreign_keys.push_back(ForeignKey{{"pipeline_id"}, "pipelines"});
    t.checks.push_back(CheckConstraint{"quality", 0.0, 1.0});
    add(std::move(t));
  }

  // ----------------------------------------------------------- per object
  {
    TableDef t = table("objects");
    t.col("object_id", ColumnType::kInt64, false)
        .col("frame_id", ColumnType::kInt64, false)
        .col("ra", ColumnType::kDouble, false)
        .col("dec", ColumnType::kDouble, false)
        .col("mag", ColumnType::kDouble)
        .col("mag_err", ColumnType::kDouble)
        .col("flux", ColumnType::kDouble)
        .col("fwhm", ColumnType::kDouble)
        .col("ellipticity", ColumnType::kDouble)
        .col("x_pix", ColumnType::kDouble)
        .col("y_pix", ColumnType::kDouble)
        .col("htmid", ColumnType::kInt64, false);  // computed at load time
    t.primary_key = {"object_id"};
    t.foreign_keys.push_back(ForeignKey{{"frame_id"}, "ccd_frames"});
    t.indexes.push_back(
        IndexDef{std::string(kIndexHtmid), {"htmid"}, {}});
    t.indexes.push_back(IndexDef{std::string(kIndexRaDecMag),
                                 {"ra", "dec", "mag"}, {}});
    t.checks.push_back(CheckConstraint{"ra", 0.0, 360.0});
    t.checks.push_back(CheckConstraint{"dec", -90.0, 90.0});
    t.checks.push_back(CheckConstraint{"mag", -5.0, 40.0});
    t.checks.push_back(CheckConstraint{"mag_err", 0.0, 10.0});
    t.checks.push_back(CheckConstraint{"ellipticity", 0.0, 1.0});
    add(std::move(t));
  }
  {
    TableDef t = table("fingers");
    t.col("finger_id", ColumnType::kInt64, false)
        .col("object_id", ColumnType::kInt64, false)
        .col("finger_number", ColumnType::kInt32, false)
        .col("flux", ColumnType::kDouble)
        .col("area_px", ColumnType::kInt32)
        .col("snr", ColumnType::kDouble);
    t.primary_key = {"finger_id"};
    t.foreign_keys.push_back(ForeignKey{{"object_id"}, "objects"});
    t.checks.push_back(CheckConstraint{"finger_number", 0.0, 3.0});
    add(std::move(t));
  }
  {
    TableDef t = table("object_moments");
    t.col("moment_id", ColumnType::kInt64, false)
        .col("object_id", ColumnType::kInt64, false)
        .col("mxx", ColumnType::kDouble)
        .col("myy", ColumnType::kDouble)
        .col("mxy", ColumnType::kDouble)
        .col("theta", ColumnType::kDouble);
    t.primary_key = {"moment_id"};
    t.foreign_keys.push_back(ForeignKey{{"object_id"}, "objects"});
    add(std::move(t));
  }
  {
    TableDef t = table("object_flags");
    t.col("flag_id", ColumnType::kInt64, false)
        .col("object_id", ColumnType::kInt64, false)
        .col("saturated", ColumnType::kInt32)
        .col("blended", ColumnType::kInt32)
        .col("edge", ColumnType::kInt32);
    t.primary_key = {"flag_id"};
    t.foreign_keys.push_back(ForeignKey{{"object_id"}, "objects"});
    t.checks.push_back(CheckConstraint{"saturated", 0.0, 1.0});
    t.checks.push_back(CheckConstraint{"blended", 0.0, 1.0});
    t.checks.push_back(CheckConstraint{"edge", 0.0, 1.0});
    add(std::move(t));
  }
  {
    TableDef t = table("detections");
    t.col("detection_id", ColumnType::kInt64, false)
        .col("object_id", ColumnType::kInt64, false)
        .col("filter_id", ColumnType::kInt32, false)
        .col("mag", ColumnType::kDouble)
        .col("mag_err", ColumnType::kDouble)
        .col("det_time", ColumnType::kTimestamp);
    t.primary_key = {"detection_id"};
    t.foreign_keys.push_back(ForeignKey{{"object_id"}, "objects"});
    t.foreign_keys.push_back(ForeignKey{{"filter_id"}, "filters"});
    t.checks.push_back(CheckConstraint{"mag", -5.0, 40.0});
    add(std::move(t));
  }
  {
    TableDef t = table("match_pairs");
    t.col("match_id", ColumnType::kInt64, false)
        .col("object_id", ColumnType::kInt64, false)
        .col("prior_object_id", ColumnType::kInt64, false)
        .col("separation_arcsec", ColumnType::kDouble)
        .col("confidence", ColumnType::kDouble);
    t.primary_key = {"match_id"};
    t.foreign_keys.push_back(ForeignKey{{"object_id"}, "objects"});
    t.foreign_keys.push_back(ForeignKey{{"prior_object_id"}, "objects"});
    t.checks.push_back(CheckConstraint{"separation_arcsec", 0.0, 60.0});
    t.checks.push_back(CheckConstraint{"confidence", 0.0, 1.0});
    add(std::move(t));
  }

  // ------------------------------------------------------------ bookkeeping
  {
    TableDef t = table("load_audit");
    t.col("audit_id", ColumnType::kInt64, false)
        .col("file_name", ColumnType::kString, false)
        .col("rows_loaded", ColumnType::kInt64)
        .col("rows_skipped", ColumnType::kInt64)
        .col("load_time", ColumnType::kTimestamp);
    t.primary_key = {"audit_id"};
    add(std::move(t));
  }

  assert(schema.table_count() == 23);
  return schema;
}

const std::array<TagMapping, 22>& tag_mappings() {
  static const std::array<TagMapping, 22> mappings = {{
      {"SUR", "surveys"},
      {"OBR", "observers"},
      {"FIL", "filters"},
      {"PIP", "pipelines"},
      {"PAR", "pipeline_params"},
      {"REG", "sky_regions"},
      {"TST", "telescope_states"},
      {"OBS", "observations"},
      {"LOG", "observation_logs"},
      {"CCD", "ccd_columns"},
      {"DEF", "ccd_defects"},
      {"FRM", "ccd_frames"},
      {"APR", "ccd_frame_apertures"},
      {"AST", "frame_astrometry"},
      {"PHO", "frame_photometry"},
      {"CAL", "frame_calibrations"},
      {"OBJ", "objects"},
      {"FNG", "fingers"},
      {"MOM", "object_moments"},
      {"FLG", "object_flags"},
      {"DET", "detections"},
      {"MAT", "match_pairs"},
  }};
  return mappings;
}

std::string_view table_for_tag(std::string_view tag) {
  for (const TagMapping& mapping : tag_mappings()) {
    if (mapping.tag == tag) return mapping.table;
  }
  return {};
}

}  // namespace sky::catalog
