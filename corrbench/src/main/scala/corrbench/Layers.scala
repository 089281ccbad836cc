package corrbench

/** The per-layer metrics of a traced run. Every workload reports all of
  * them; a layer the workload does not exercise reads 0.
  */
object Layers {

  /** Span name → metric name, for spans reported as p50 and tail in µs. */
  private val timedUs: Seq[(String, String)] = Seq(
    "core.result" -> "core.result_us",
    "core.join" -> "core.join_us",
    "core.containment" -> "core.containment_us",
    "index.search" -> "index.search_us",
    "stats.pearson" -> "stats.pearson_us",
    "stats.ranks" -> "stats.ranks_us",
    "stats.rankit" -> "stats.rankit_us",
    "stats.spearman" -> "stats.spearman_us",
    "stats.rin" -> "stats.rin_us",
    "stats.qn_scale" -> "stats.qn_scale_us",
    "stats.qn" -> "stats.qn_us",
    "stats.pm1" -> "stats.pm1_us",
    "stats.hoeffding" -> "stats.hoeffding_us",
    "rank.estimates" -> "rank.estimates_us",
    "query.sort" -> "query.sort_us",
  ) ++ RankWorkload.rankerKeys.map(k => s"rank.score.$k" -> s"rank.score_us.$k")

  /** Metrics the workloads work out themselves (zero where they have none). */
  val fromWorkload: Seq[String] = Seq(
    "core.kept_per_distinct", "core.truncated_sketches", "core.sketch_bytes", "core.join_n",
    "core.h_collisions", "index.postings_visited", "index.hits_per_query",
  )

  private def per(t: Trace, name: String, base: String): Double = {
    val b = t.counter(base)
    if (b == 0) 0.0 else t.counter(name) / b
  }

  private def orZero(v: Double): Double = if (v.isNaN || v.isInfinite) 0.0 else v

  def all(t: Trace, fromW: Seq[(String, Double)]): Seq[(String, Double)] = {
    val w = fromW.toMap
    val rows = t.counter("core.rows")
    val sparkWall = t.counter("spark.wall_ns")
    val timed = timedUs.flatMap { case (span, metric) =>
      val d = t.durations(span)
      Seq(metric -> Stats.quantile(d, 0.5) / 1e3,
        s"$metric.tail" -> Stats.quantile(d, Stats.tailQuantile(d.length)) / 1e3)
    }
    val spark = Seq("spark.tasks", "spark.task_run_ms", "spark.task_cpu_ms", "spark.gc_ms",
      "spark.task_deser_ms", "spark.shuffle_write_bytes", "spark.shuffle_read_bytes", "spark.result_bytes")
      .map(k => k -> per(t, k, "spark.calls"))
    val derived = Seq(
      "core.h_ns_per_row" -> (if (rows == 0) 0.0 else t.totalNs("core.h") / rows),
      "core.update_ns_per_row" -> (if (rows == 0) 0.0 else t.totalNs("core.update") / rows),
      "spark.build_s" -> Stats.median(t.durations("spark.build")) / 1e9,
      "spark.tokv_s" -> Stats.median(t.durations("spark.tokv")) / 1e9,
      "spark.core_busy" -> t.counter("spark.task_run_ms") * 1e6 / (sparkWall * SparkSetup.threads),
      "spark.ns_per_row_core" -> sparkWall * SparkSetup.threads / t.counter("spark.rows"),
      "index.build_ms" -> Stats.median(t.durations("index.build")) / 1e6,
      "rank.pm1_share" -> t.totalNs("stats.pm1") / t.totalNs("rank.estimates"),
    )
    (derived ++ timed ++ spark ++ fromWorkload.map(k => k -> w.getOrElse(k, 0.0))).map { case (k, v) => k -> orZero(v) }
  }

  def unitOf(name: String): String =
    if (name.endsWith("_ns_per_row") || name.endsWith("ns_per_row_core")) "ns/row"
    else if (name.contains("_us")) "us"
    else if (name.endsWith("_ms")) "ms"
    else if (name.endsWith("_s")) "s"
    else if (name.endsWith("_bytes")) "bytes"
    else if (name.endsWith("_share") || name.endsWith("_busy") || name.endsWith("per_distinct") ||
             name == "trace.overhead") "ratio"
    else "count"
}
