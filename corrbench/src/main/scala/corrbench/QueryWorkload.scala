package corrbench

import org.apache.spark.sql.SparkSession
import repro.core.CorrelationSketch
import repro.data.KVTable
import repro.index.SketchIndex
import repro.stats.Correlations

import scala.collection.mutable

/** The §5.5 query stream: the same path as `QueryLatencyJob.timedQuery`.
  * The sketches are built with `fromColumns` in set-up, without Spark.
  *
  * 4 groups of 256 column pairs share a key domain within a group, so every
  * query overlaps about 128 corpus sketches and the top-100 cut bites. The
  * group domains are spread over 60..1500 keys, so most sketches are exact.
  */
final class QueryWorkload(seed: Long) extends Workload {
  import QueryWorkload._

  private var tables: Seq[KVTable] = Nil
  private var distinct: Seq[Int] = Nil
  private var queryIds: Array[String] = _
  private var corpusIds: Array[String] = _
  private var sketches: Map[String, CorrelationSketch] = Map.empty
  private var index: SketchIndex = _
  private var hits: Array[Seq[SketchIndex.Hit]] = _
  private var ranked: Array[Seq[(String, Double)]] = _
  private val joinSizes = mutable.ArrayBuffer.empty[Double]
  // Per query, counted by the benchmark from its own postings: posting
  // entries a search touches, and corpus ids with overlap > 0 before the cut.
  private var postingsVisited: Array[Int] = _
  private var overlapping: Array[Int] = _
  private var sketchBytes = 0.0

  val needsSpark = false
  def opsPerRound: Int = queryIds.length
  def workPerRound: Double = queryIds.length

  def inputs(): Unit = {
    tables = Inputs.nycStratified(Groups, PairsPerGroup, 60, 1500, 0.3, seed)
    val (q, c) = tables.map(_.id).sorted.zipWithIndex.partition(_._2 % 2 == 0)
    queryIds = q.map(_._1).toArray
    corpusIds = c.map(_._1).toArray
    hits = new Array(queryIds.length)
    ranked = new Array(queryIds.length)
    distinct = tables.map(_.keys.distinct.length)
  }

  def setup(spark: Option[SparkSession], t: Trace): Unit = {
    sketches = Inputs.localSketches(tables, K)
    val corpus = corpusIds.map(id => id -> sketches(id)).toMap
    index = t.span("index.build") { new SketchIndex(corpus) }
  }

  def round(spark: Option[SparkSession], t: Trace, lat: Latencies): Unit = {
    var qi = 0
    while (qi < queryIds.length) {
      t.op = qi
      val q = sketches(queryIds(qi))
      val t0 = System.nanoTime()
      val hs = t.span("index.search") { index.search(q, TopN) }
      val scored = hs.map { h =>
        val sj = t.span("core.join") { CorrelationSketch.join(q, index.sketchOf(h.id)) }
        if (t.enabled) joinSizes += sj.n
        h.id -> t.span("stats.pearson") { Correlations.pearson(sj.xs, sj.ys) }
      }
      val sorted = t.span("query.sort") { scored.sortBy { case (id, r) => (-absOrZero(r), id) } }
      lat.add("op", (System.nanoTime() - t0).toDouble)
      hits(qi) = hs
      ranked(qi) = sorted
      qi += 1
    }
  }

  def check(): Checks.Report = {
    val corpus = corpusIds.toSeq.map(id => id -> sketches(id).keyHashes)
    val postings = mutable.HashMap.empty[Int, Int]
    corpus.foreach { case (_, hs) => hs.foreach(h => postings(h) = postings.getOrElse(h, 0) + 1) }
    postingsVisited = queryIds.map(qid => sketches(qid).keyHashes.map(h => postings.getOrElse(h, 0)).sum)
    overlapping = new Array(queryIds.length)
    // Queries are checked on all cores: this is not timed, and brute force is slow.
    val problems = java.util.stream.IntStream.range(0, queryIds.length).parallel().mapToObj { qi =>
      val qid = queryIds(qi)
      val q = sketches(qid)
      val all = Checks.bruteTop(q.keyHashes, corpus, Int.MaxValue)
      overlapping(qi) = all.size
      Checks.hitsMatch(qid, hits(qi).map(h => (h.id, h.overlap)), all.take(TopN)) ++
        ranked(qi).flatMap { case (id, r) =>
          Checks.pearsonMatches(s"query $qid hit $id", r, Checks.ownPearson(q, sketches(id)))
        } ++ Checks.nonIncreasing(s"query $qid", ranked(qi).map(x => absOrZero(x._2)))
    }.toArray.toSeq.flatMap(_.asInstanceOf[Seq[String]])
    sketchBytes = Inputs.kryoBytes(sketches.values)
    Checks.Report(problems, 0, Nil)
  }

  def digest(): Long = (hits.toSeq, ranked.toSeq).hashCode.toLong

  def named(lat: Latencies, roundNs: Array[Double]): Seq[(String, Double, String)] = {
    val ms = lat("op").map(_ / 1e6)
    Seq(("query_ms_p50", Stats.quantile(ms, 0.5), "ms"), ("query_ms_p99", Stats.quantile(ms, 0.99), "ms"),
      ("queries_timed", ms.length.toDouble, "count"),
      ("queries_under_100ms_share", ms.count(_ < 100).toDouble / ms.length, "ratio"))
  }

  def layers(t: Trace): Seq[(String, Double)] = Seq(
    "core.truncated_sketches" -> sketches.values.count(!_.exact).toDouble,
    "core.sketch_bytes" -> sketchBytes,
    "core.join_n" -> Stats.median(joinSizes.toArray),
    "index.postings_visited" -> postingsVisited.sum.toDouble / postingsVisited.length,
    "index.hits_per_query" -> overlapping.sum.toDouble / overlapping.length,
  )

  def profile(): Seq[(String, String)] = {
    val sizes = hits.toSeq.flatMap(_.map(h => h.overlap.toDouble))
    Seq(
      "queries / corpus sketches" -> s"${queryIds.length} / ${corpusIds.length}",
      "rows" -> tables.map(_.rows).sum.toString,
      "share of columns with more distinct keys than k" ->
        f"${distinct.count(_ > K).toDouble / tables.size}%.3f",
      "share of rows with a repeated key" -> f"${1 - distinct.sum.toDouble / tables.map(_.rows).sum}%.3f",
      "share of exact sketches" -> f"${sketches.values.count(_.exact).toDouble / sketches.size}%.3f",
      "share of queries overlapping more than 100 corpus sketches" ->
        f"${overlapping.count(_ > TopN).toDouble / overlapping.length}%.3f",
      "sketch-join sizes of the hits" -> Inputs.spread(sizes),
    )
  }
}

object QueryWorkload {
  val K = 1024
  val TopN = 100
  val Groups = 4
  val PairsPerGroup = 256

  def absOrZero(r: Double): Double = if (r.isNaN) 0.0 else math.abs(r)
}
